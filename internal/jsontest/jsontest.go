// Package jsontest holds the helpers the differential fuzz targets use
// to hold the strict roadnet.Cursor decoders to encoding/json: a value
// comparison that also compares float bits, and a check for the two
// inputs the Cursor rejects on purpose while encoding/json accepts them.
package jsontest

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
)

// Identical reports whether a and b are reflect.DeepEqual and every
// float in them has the same bits. DeepEqual alone compares floats with
// ==, which equates 0 and -0.
func Identical(a, b interface{}) bool {
	return reflect.DeepEqual(a, b) && sameBits(reflect.ValueOf(a), reflect.ValueOf(b))
}

// sameBits walks two values DeepEqual already matched.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		return a.IsNil() || sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
	}
	return true
}

// StrictOnly reports whether data's first JSON value repeats a member
// name within one object (names compared as encoding/json matches
// fields, without case) or is followed by anything but whitespace: the
// inputs encoding/json's Decoder.Decode accepts and the Cursor rejects.
// It walks the value with json.Decoder.Token and reports false for
// input that is not valid JSON.
func StrictOnly(data []byte) bool {
	type frame struct {
		object, name bool // name: the next token is a member name
		names        []string
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []frame
	dup := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if top := len(stack) - 1; top >= 0 && stack[top].name {
			if name, ok := tok.(string); ok {
				for _, prev := range stack[top].names {
					dup = dup || strings.EqualFold(prev, name)
				}
				stack[top].names = append(stack[top].names, name)
				stack[top].name = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			stack = append(stack, frame{object: tok == json.Delim('{'), name: tok == json.Delim('{')})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended.
		if len(stack) == 0 {
			break
		}
		if top := len(stack) - 1; stack[top].object {
			stack[top].name = true
		}
	}
	rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")
	return dup || len(rest) > 0
}
