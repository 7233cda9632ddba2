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
