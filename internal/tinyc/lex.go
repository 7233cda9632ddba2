// Package tinyc is the benchmark compiler of the reproduction: a small
// Pascal-flavoured structured language compiled to naive MIPS-X assembly.
// Its output carries no delay slots and no interlock padding — exactly the
// input the code reorganizer (internal/reorg) expects, mirroring the
// division of labour in the Stanford compiler system the paper used.
//
// The language has word-sized integers, globals, global arrays, functions
// with up to four parameters, while/if/return, the usual operators
// (* / % lower to multiply/divide-step runtime routines, as on the real
// machine), Lisp-runtime builtins (cons/car/cdr/setcar/setcdr over a bump
// heap) for the paper's Lisp workloads, and FPU builtins (itof/fadd/fsub/
// fmul/fdiv/flt/feq/ftoi) that exercise the coprocessor interface.
//
// A program is lexed, parsed and checked once (check.go holds the
// language's rules); then gen.go generates MIPS-X assembly from the checked
// syntax tree, or vaxgen.go generates code for the CISC baseline.
package tinyc

import (
	"fmt"
	"strconv"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNum
	tPunct // operators and delimiters, in tok.text
	tKeyword
)

type token struct {
	kind tokKind
	text string
	num  int64
	line int
}

var keywords = map[string]bool{
	"var": true, "func": true, "if": true, "else": true, "while": true,
	"return": true, "print": true, "putc": true,
}

// Error is a compiler diagnostic with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("tinyc: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  []rune
	pos  int
	line int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src), line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos++
		case c == '/' && l.peek(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case unicode.IsLetter(c) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
				l.pos++
			}
			text := string(l.src[start:l.pos])
			kind := tIdent
			if keywords[text] {
				kind = tKeyword
			}
			l.emit(token{kind: kind, text: text})
		case unicode.IsDigit(c):
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) ||
				l.src[l.pos] == 'x' || l.src[l.pos] == 'X' ||
				(l.src[l.pos] >= 'a' && l.src[l.pos] <= 'f') ||
				(l.src[l.pos] >= 'A' && l.src[l.pos] <= 'F')) {
				l.pos++
			}
			// A literal is one word, 0..2^32-1 (minus is an operator), so
			// both backends hold the same bits.
			text := string(l.src[start:l.pos])
			v, err := strconv.ParseUint(text, 0, 32)
			if err != nil {
				return nil, errf(l.line, "bad number %q", text)
			}
			l.emit(token{kind: tNum, num: int64(v)})
		case c == '\'':
			if l.pos+2 < len(l.src) && l.src[l.pos+2] == '\'' {
				l.emit(token{kind: tNum, num: int64(l.src[l.pos+1])})
				l.pos += 3
			} else if l.pos+3 < len(l.src) && l.src[l.pos+1] == '\\' && l.src[l.pos+3] == '\'' {
				var v rune
				switch l.src[l.pos+2] {
				case 'n':
					v = '\n'
				case 't':
					v = '\t'
				case '\\', '\'':
					v = l.src[l.pos+2]
				default:
					return nil, errf(l.line, "bad escape")
				}
				l.emit(token{kind: tNum, num: int64(v)})
				l.pos += 4
			} else {
				return nil, errf(l.line, "bad character literal")
			}
		default:
			// Multi-character operators first.
			two := string(c)
			if l.pos+1 < len(l.src) {
				two = string([]rune{c, l.src[l.pos+1]})
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>":
				l.emit(token{kind: tPunct, text: two})
				l.pos += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '&', '|', '^', '<', '>', '=', '!',
				'(', ')', '{', '}', '[', ']', ';', ',':
				l.emit(token{kind: tPunct, text: string(c)})
				l.pos++
			default:
				return nil, errf(l.line, "unexpected character %q", string(c))
			}
		}
	}
	l.emit(token{kind: tEOF})
	return l.toks, nil
}

func (l *lexer) peek(n int) rune {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func (l *lexer) emit(t token) {
	t.line = l.line
	l.toks = append(l.toks, t)
}
