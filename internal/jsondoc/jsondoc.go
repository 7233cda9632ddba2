// Package jsondoc is the one codec of the repository's schema-tagged JSON
// documents: the mipsx-bench/v1 report, the explorer's Pareto document, the
// scenario grid, attribution reports, PC profiles, the lint envelopes, and
// machine specs and sweeps. Every document is written as two-space-indented
// JSON with a trailing newline, and read strictly: exactly one JSON value,
// no field the target type does not declare, nothing but whitespace after
// it. A mistyped key in a hand-edited baseline is an error, not a field
// that silently keeps its zero value.
package jsondoc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Marshal renders v as two-space-indented JSON with a trailing newline.
func Marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode decodes b as exactly one JSON value into v, rejecting unknown
// fields and anything but whitespace after the value.
func Decode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Schema returns the schema field of b's first JSON value: the whole
// document, or the header line of a line-framed stream.
func Schema(b []byte) (string, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&probe); err != nil {
		return "", err
	}
	return probe.Schema, nil
}

// Parse reads a document of the given schema into a new T: b's schema field
// must equal schema, and b must then decode strictly (Decode). what names
// the document kind in the wrong-schema error ("a bench document").
func Parse[T any](b []byte, schema, what string) (*T, error) {
	got, err := Schema(b)
	if err != nil {
		return nil, err
	}
	if got != schema {
		return nil, fmt.Errorf("not %s (schema %q, want %q)", what, got, schema)
	}
	v := new(T)
	if err := Decode(b, v); err != nil {
		return nil, err
	}
	return v, nil
}

// EnumText returns the name of an enumeration value, given the names in
// value order: machine specs write squash modes and cache policies by name
// ("optional", "lru"), never by number. A value past the names is an error,
// so a spec holding one fails to encode instead of writing a name no reader
// accepts.
func EnumText[T ~uint8](kind string, names []string, v T) ([]byte, error) {
	if int(v) < len(names) {
		return []byte(names[v]), nil
	}
	return nil, fmt.Errorf("%s %d is out of range, want one of %s", kind, v, strings.Join(names, ", "))
}

// ParseEnum sets *v to the value named b, the inverse of EnumText. An
// unknown name is an error naming it and the allowed names.
func ParseEnum[T ~uint8](kind string, names []string, b []byte, v *T) error {
	i := slices.Index(names, string(b))
	if i < 0 {
		return fmt.Errorf("unknown %s %q, want one of %s", kind, b, strings.Join(names, ", "))
	}
	*v = T(i)
	return nil
}
