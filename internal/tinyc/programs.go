package tinyc

import (
	"fmt"
	"strings"
)

// Benchmark is one program of the reproduction's benchmark suite, standing
// in for the Stanford Pascal and Lisp benchmarks the paper measured. Expect
// computes the reference output with an independent Go implementation of
// the same algorithm.
type Benchmark struct {
	Name   string
	Class  string // "pascal", "lisp" or "fp"
	Source string
	Expect func() string
}

// lcg is the pseudo-random generator the benchmarks share (and its Go
// reference): x' = (75x + 74) mod 65537.
func lcgNext(x int) int { return (75*x + 74) % 65537 }

const lcgTiny = `
var seed;
func rnd() {
	seed = (seed * 75 + 74) % 65537;
	return seed;
}
`

// Benchmarks returns the suite. Sizes are chosen so each program runs in
// tens of thousands of cycles — long enough for steady-state pipeline
// statistics, short enough for go test.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{
			Name:  "bubblesort",
			Class: "pascal",
			Source: lcgTiny + `
var a[64];
func main() {
	var i; var j; var t; var n;
	n = 64;
	seed = 12345;
	i = 0;
	while (i < n) { a[i] = rnd() % 1000; i = i + 1; }
	i = 0;
	while (i < n - 1) {
		j = 0;
		while (j < n - 1 - i) {
			if (a[j] > a[j+1]) {
				t = a[j]; a[j] = a[j+1]; a[j+1] = t;
			}
			j = j + 1;
		}
		i = i + 1;
	}
	i = 0; t = 0;
	while (i < n) { t = t + a[i] * (i + 1); i = i + 1; }
	print(t);
}`,
			Expect: func() string {
				a := make([]int, 64)
				seed := 12345
				for i := range a {
					seed = lcgNext(seed)
					a[i] = seed % 1000
				}
				for i := 0; i < len(a)-1; i++ {
					for j := 0; j < len(a)-1-i; j++ {
						if a[j] > a[j+1] {
							a[j], a[j+1] = a[j+1], a[j]
						}
					}
				}
				t := 0
				for i, v := range a {
					t += v * (i + 1)
				}
				return fmt.Sprintf("%d\n", t)
			},
		},
		{
			Name:  "matmul",
			Class: "pascal",
			Source: lcgTiny + `
var ma[144]; var mb[144]; var mc[144];
func main() {
	var i; var j; var k; var s; var n;
	n = 12;
	seed = 7;
	i = 0;
	while (i < n*n) { ma[i] = rnd() % 20 - 10; i = i + 1; }
	i = 0;
	while (i < n*n) { mb[i] = rnd() % 20 - 10; i = i + 1; }
	i = 0;
	while (i < n) {
		j = 0;
		while (j < n) {
			s = 0; k = 0;
			while (k < n) {
				s = s + ma[i*n+k] * mb[k*n+j];
				k = k + 1;
			}
			mc[i*n+j] = s;
			j = j + 1;
		}
		i = i + 1;
	}
	s = 0; i = 0;
	while (i < n*n) { s = s + mc[i]; i = i + 1; }
	print(s);
}`,
			Expect: func() string {
				n := 12
				ma := make([]int, n*n)
				mb := make([]int, n*n)
				mc := make([]int, n*n)
				seed := 7
				for i := range ma {
					seed = lcgNext(seed)
					ma[i] = seed%20 - 10
				}
				for i := range mb {
					seed = lcgNext(seed)
					mb[i] = seed%20 - 10
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						s := 0
						for k := 0; k < n; k++ {
							s += ma[i*n+k] * mb[k*n+j]
						}
						mc[i*n+j] = s
					}
				}
				s := 0
				for _, v := range mc {
					s += v
				}
				return fmt.Sprintf("%d\n", s)
			},
		},
		{
			Name:  "fib",
			Class: "pascal",
			Source: `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func main() {
	print(fib(15));
}`,
			Expect: func() string { return "610\n" },
		},
		{
			Name:  "sieve",
			Class: "pascal",
			Source: `
var flags[400];
func main() {
	var i; var j; var count; var n;
	n = 400;
	i = 2;
	while (i < n) { flags[i] = 1; i = i + 1; }
	i = 2;
	while (i < n) {
		if (flags[i] == 1) {
			j = i + i;
			while (j < n) { flags[j] = 0; j = j + i; }
		}
		i = i + 1;
	}
	count = 0; i = 2;
	while (i < n) { count = count + flags[i]; i = i + 1; }
	print(count);
}`,
			Expect: func() string {
				n := 400
				flags := make([]bool, n)
				for i := 2; i < n; i++ {
					flags[i] = true
				}
				for i := 2; i < n; i++ {
					if flags[i] {
						for j := i + i; j < n; j += i {
							flags[j] = false
						}
					}
				}
				count := 0
				for i := 2; i < n; i++ {
					if flags[i] {
						count++
					}
				}
				return fmt.Sprintf("%d\n", count)
			},
		},
		{
			Name:  "charscan",
			Class: "pascal",
			Source: lcgTiny + `
var text[512];
func main() {
	var i; var vowels; var runs; var prev; var c;
	seed = 99;
	i = 0;
	while (i < 512) { text[i] = 'a' + rnd() % 26; i = i + 1; }
	vowels = 0; runs = 0; prev = 0;
	i = 0;
	while (i < 512) {
		c = text[i];
		if (c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u') {
			vowels = vowels + 1;
			if (prev == 0) { runs = runs + 1; }
			prev = 1;
		} else {
			prev = 0;
		}
		i = i + 1;
	}
	print(vowels);
	print(runs);
}`,
			Expect: func() string {
				seed := 99
				text := make([]byte, 512)
				for i := range text {
					seed = lcgNext(seed)
					text[i] = byte('a' + seed%26)
				}
				vowels, runs, prev := 0, 0, false
				for _, c := range text {
					if strings.ContainsRune("aeiou", rune(c)) {
						vowels++
						if !prev {
							runs++
						}
						prev = true
					} else {
						prev = false
					}
				}
				return fmt.Sprintf("%d\n%d\n", vowels, runs)
			},
		},
		{
			Name:  "queens",
			Class: "pascal",
			Source: `
var cols[16]; var diag1[32]; var diag2[32]; var solutions;
func place(row, n) {
	var c;
	if (row == n) {
		solutions = solutions + 1;
		return 0;
	}
	c = 0;
	while (c < n) {
		if (cols[c] == 0 && diag1[row+c] == 0 && diag2[row-c+n] == 0) {
			cols[c] = 1; diag1[row+c] = 1; diag2[row-c+n] = 1;
			place(row+1, n);
			cols[c] = 0; diag1[row+c] = 0; diag2[row-c+n] = 0;
		}
		c = c + 1;
	}
	return 0;
}
func main() {
	solutions = 0;
	place(0, 7);
	print(solutions);
}`,
			Expect: func() string { return "40\n" }, // 7-queens has 40 solutions
		},
		{
			Name:  "listsum",
			Class: "lisp",
			Source: `
func build(n) {
	var l;
	l = 0;
	while (n > 0) {
		l = cons(n, l);
		n = n - 1;
	}
	return l;
}
func sum(l) {
	var s;
	s = 0;
	while (l != 0) {
		s = s + car(l);
		l = cdr(l);
	}
	return s;
}
func main() {
	var l;
	l = build(200);
	print(sum(l));
	print(sum(cdr(cdr(cdr(l)))));
}`,
			Expect: func() string {
				n := 200
				total := n * (n + 1) / 2
				return fmt.Sprintf("%d\n%d\n", total, total-1-2-3)
			},
		},
		{
			Name:  "listrev",
			Class: "lisp",
			Source: `
func build(n) {
	var l;
	l = 0;
	while (n > 0) { l = cons(n, l); n = n - 1; }
	return l;
}
func reverse(l) {
	var r;
	r = 0;
	while (l != 0) { r = cons(car(l), r); l = cdr(l); }
	return r;
}
func nth(l, n) {
	while (n > 0) { l = cdr(l); n = n - 1; }
	return car(l);
}
func main() {
	var l; var r;
	l = build(100);
	r = reverse(l);
	print(nth(l, 0));
	print(nth(r, 0));
	print(nth(r, 99));
	print(nth(r, 50));
}`,
			Expect: func() string { return "1\n100\n1\n50\n" },
		},
		{
			Name:  "treeins",
			Class: "lisp",
			Source: lcgTiny + `
// Binary search tree as nested cons cells: node = cons(value, cons(left, right)).
func insert(t, v) {
	if (t == 0) { return cons(v, cons(0, 0)); }
	if (v < car(t)) {
		setcar(cdr(t), insert(car(cdr(t)), v));
	} else {
		setcdr(cdr(t), insert(cdr(cdr(t)), v));
	}
	return t;
}
func count(t) {
	if (t == 0) { return 0; }
	return 1 + count(car(cdr(t))) + count(cdr(cdr(t)));
}
func depthsum(t, d) {
	if (t == 0) { return 0; }
	return d + depthsum(car(cdr(t)), d+1) + depthsum(cdr(cdr(t)), d+1);
}
func main() {
	var t; var i;
	t = 0;
	seed = 31;
	i = 0;
	while (i < 80) {
		t = insert(t, rnd() % 500);
		i = i + 1;
	}
	print(count(t));
	print(depthsum(t, 1));
}`,
			Expect: func() string {
				type node struct {
					v           int
					left, right *node
				}
				var insert func(t *node, v int) *node
				insert = func(t *node, v int) *node {
					if t == nil {
						return &node{v: v}
					}
					if v < t.v {
						t.left = insert(t.left, v)
					} else {
						t.right = insert(t.right, v)
					}
					return t
				}
				var count func(t *node) int
				count = func(t *node) int {
					if t == nil {
						return 0
					}
					return 1 + count(t.left) + count(t.right)
				}
				var depthsum func(t *node, d int) int
				depthsum = func(t *node, d int) int {
					if t == nil {
						return 0
					}
					return d + depthsum(t.left, d+1) + depthsum(t.right, d+1)
				}
				var t *node
				seed := 31
				for i := 0; i < 80; i++ {
					seed = lcgNext(seed)
					t = insert(t, seed%500)
				}
				return fmt.Sprintf("%d\n%d\n", count(t), depthsum(t, 1))
			},
		},
		{
			Name:  "fpdot",
			Class: "fp",
			Source: `
var xv[64]; var yv[64];
func main() {
	var i; var acc; var prod;
	i = 0;
	while (i < 64) {
		xv[i] = itof(i + 1);
		yv[i] = itof(64 - i);
		i = i + 1;
	}
	acc = itof(0);
	i = 0;
	while (i < 64) {
		prod = fmul(xv[i], yv[i]);
		acc = fadd(acc, prod);
		i = i + 1;
	}
	print(ftoi(acc));
	if (flt(itof(3), itof(4)) == 1) { print(1); } else { print(0); }
}`,
			Expect: func() string {
				acc := float32(0)
				for i := 0; i < 64; i++ {
					acc += float32(i+1) * float32(64-i)
				}
				return fmt.Sprintf("%d\n1\n", int32(acc))
			},
		},
		{
			Name:  "quicksort",
			Class: "pascal",
			Source: lcgTiny + `
var qa[128];
func qsort(lo, hi) {
	var i; var j; var p; var t;
	if (lo >= hi) { return 0; }
	p = qa[(lo + hi) / 2];
	i = lo; j = hi;
	while (i <= j) {
		while (qa[i] < p) { i = i + 1; }
		while (qa[j] > p) { j = j - 1; }
		if (i <= j) {
			t = qa[i]; qa[i] = qa[j]; qa[j] = t;
			i = i + 1; j = j - 1;
		}
	}
	qsort(lo, j);
	qsort(i, hi);
	return 0;
}
func main() {
	var i; var s;
	seed = 321;
	i = 0;
	while (i < 128) { qa[i] = rnd() % 5000; i = i + 1; }
	qsort(0, 127);
	s = 0; i = 0;
	while (i < 128) { s = s + qa[i] * (i + 1); i = i + 1; }
	print(s);
	print(qa[0]);
	print(qa[127]);
}`,
			Expect: func() string {
				a := make([]int, 128)
				seed := 321
				for i := range a {
					seed = lcgNext(seed)
					a[i] = seed % 5000
				}
				var qs func(lo, hi int)
				qs = func(lo, hi int) {
					if lo >= hi {
						return
					}
					p := a[(lo+hi)/2]
					i, j := lo, hi
					for i <= j {
						for a[i] < p {
							i++
						}
						for a[j] > p {
							j--
						}
						if i <= j {
							a[i], a[j] = a[j], a[i]
							i++
							j--
						}
					}
					qs(lo, j)
					qs(i, hi)
				}
				qs(0, 127)
				s := 0
				for i, v := range a {
					s += v * (i + 1)
				}
				return fmt.Sprintf("%d\n%d\n%d\n", s, a[0], a[127])
			},
		},
		{
			Name:  "hanoi",
			Class: "pascal",
			Source: `
var moves;
func hanoi(n, from, to, via) {
	if (n == 0) { return 0; }
	hanoi(n - 1, from, via, to);
	moves = moves + 1;
	hanoi(n - 1, via, to, from);
	return 0;
}
func main() {
	moves = 0;
	hanoi(12, 1, 3, 2);
	print(moves);
}`,
			Expect: func() string { return "4095\n" },
		},
		{
			Name:  "crc",
			Class: "pascal",
			Source: lcgTiny + `
var msg[256];
func main() {
	var i; var b; var crc; var k;
	seed = 55;
	i = 0;
	while (i < 256) { msg[i] = rnd() % 256; i = i + 1; }
	crc = 0xFFFF;
	i = 0;
	while (i < 256) {
		b = msg[i];
		crc = crc ^ b;
		k = 0;
		while (k < 8) {
			if ((crc & 1) == 1) {
				crc = (crc >> 1) ^ 0xA001;
			} else {
				crc = crc >> 1;
			}
			k = k + 1;
		}
		i = i + 1;
	}
	print(crc);
}`,
			Expect: func() string {
				seed := 55
				crc := 0xFFFF
				for i := 0; i < 256; i++ {
					seed = lcgNext(seed)
					crc ^= seed % 256
					for k := 0; k < 8; k++ {
						if crc&1 == 1 {
							crc = (crc >> 1) ^ 0xA001
						} else {
							crc >>= 1
						}
					}
				}
				return fmt.Sprintf("%d\n", crc)
			},
		},
		{
			Name:  "perm",
			Class: "pascal",
			Source: `
var pa[6]; var count;
func swap(i, j) {
	var t;
	t = pa[i]; pa[i] = pa[j]; pa[j] = t;
	return 0;
}
func permute(k) {
	var i;
	if (k == 6) {
		// count permutations where pa[0] < pa[5]
		if (pa[0] < pa[5]) { count = count + 1; }
		return 0;
	}
	i = k;
	while (i < 6) {
		swap(k, i);
		permute(k + 1);
		swap(k, i);
		i = i + 1;
	}
	return 0;
}
func main() {
	var i;
	i = 0;
	while (i < 6) { pa[i] = i; i = i + 1; }
	count = 0;
	permute(0);
	print(count);
}`,
			Expect: func() string { return "360\n" }, // 6!/2
		},
		{
			Name:  "assoc",
			Class: "lisp",
			Source: lcgTiny + `
// Association list: ((key . val) ...) built from cons cells.
func acons(key, val, alist) {
	return cons(cons(key, val), alist);
}
func assoc(key, alist) {
	while (alist != 0) {
		if (car(car(alist)) == key) { return car(alist); }
		alist = cdr(alist);
	}
	return 0;
}
func main() {
	var al; var i; var hits; var e;
	al = 0;
	i = 0;
	while (i < 60) {
		al = acons(i * 3 % 61, i, al);
		i = i + 1;
	}
	hits = 0;
	seed = 9;
	i = 0;
	while (i < 100) {
		e = assoc(rnd() % 80, al);
		if (e != 0) { hits = hits + cdr(e) % 7; }
		i = i + 1;
	}
	print(hits);
}`,
			Expect: func() string {
				type pair struct{ k, v int }
				var al []pair
				for i := 0; i < 60; i++ {
					al = append([]pair{{i * 3 % 61, i}}, al...)
				}
				hits := 0
				seed := 9
				for i := 0; i < 100; i++ {
					seed = lcgNext(seed)
					key := seed % 80
					for _, p := range al {
						if p.k == key {
							hits += p.v % 7
							break
						}
					}
				}
				return fmt.Sprintf("%d\n", hits)
			},
		},
	}
}

// BenchmarkByName returns the suite's benchmark with the given name; the
// error for any other name lists the names the suite has.
func BenchmarkByName(name string) (Benchmark, error) {
	var names []string
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
		names = append(names, b.Name)
	}
	return Benchmark{}, fmt.Errorf("unknown benchmark %q (have %s)", name, strings.Join(names, ", "))
}

// SuiteByClass filters the suite.
func SuiteByClass(class string) []Benchmark {
	var out []Benchmark
	for _, b := range Benchmarks() {
		if b.Class == class {
			out = append(out, b)
		}
	}
	return out
}
