package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// batchRequest is the POST /traces/batch body: each element is one trace
// in the canonical text format, exactly as POST /traces accepts.
type batchRequest struct {
	Traces []string `json:"traces"`
}

// decodeBatchBody decodes a POST /traces/batch body. The documented shape
// takes decodeBatch's one pass; any other body goes to encoding/json, so
// every body decodes to the strings, or fails with the error, that
// json.Unmarshal gives it.
func decodeBatchBody(body []byte) ([]string, error) {
	if traces, ok := decodeBatch(body); ok {
		return traces, nil
	}
	var req batchRequest
	err := json.Unmarshal(body, &req)
	return req.Traces, err
}

// decodeBatch reads {"traces": ["...", ...]} in one pass and makes one
// allocation per string, plus the slice. It accepts only that shape: JSON
// whitespace between tokens, the key spelled exactly "traces", an array of
// zero or more strings and nothing after the closing brace. A string may
// hold printable ASCII, valid multi-byte UTF-8 and the escapes \" \\ \/ \b
// \f \n \r \t. On anything else (another or repeated key, null, a
// non-string element, \u escapes, control bytes, invalid UTF-8, truncated
// or trailing data) it reports false and decodes nothing, and the caller
// falls back to encoding/json. Whatever it accepts, json.Unmarshal decodes
// to the same strings (FuzzDecodeBatch).
func decodeBatch(b []byte) ([]string, bool) {
	const key = `"traces"`
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(key)) {
		return nil, false
	}
	i = skipSpace(b, i+len(key))
	if i == len(b) || b[i] != ':' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if i == len(b) || b[i] != '[' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	traces := []string{} // [] decodes to an empty slice, not nil
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			s, next, ok := decodeString(b, i)
			if !ok {
				return nil, false
			}
			traces = append(traces, s)
			i = skipSpace(b, next)
			if i == len(b) {
				return nil, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return nil, false
			}
			i = skipSpace(b, i+1)
		}
	}
	i = skipSpace(b, i)
	if i == len(b) || b[i] != '}' {
		return nil, false
	}
	if skipSpace(b, i+1) != len(b) {
		return nil, false
	}
	return traces, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainByte marks the bytes a string copies as they are: printable ASCII
// and DEL, but not the quote or the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescapeByte maps the character after a backslash to the byte it
// stands for; 0 marks an escape decodeString leaves to encoding/json.
var unescapeByte = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// decodeString decodes the JSON string whose opening quote is b[i] and
// returns it with the index just past its closing quote. The first pass
// finds the end and counts escapes; a string without any is one copy, one
// with escapes is written once into a builder of its exact length.
func decodeString(b []byte, i int) (string, int, bool) {
	if i == len(b) || b[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	escapes := 0
	j := start
	for {
		for j < len(b) && plainByte[b[j]] {
			j++
		}
		if j == len(b) {
			return "", 0, false
		}
		switch c := b[j]; {
		case c == '"':
			raw := b[start:j]
			if escapes == 0 {
				return string(raw), j + 1, true
			}
			return unescape(raw, escapes), j + 1, true
		case c == '\\':
			if j+1 == len(b) || unescapeByte[b[j+1]] == 0 {
				return "", 0, false
			}
			escapes++
			j += 2
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				return "", 0, false // invalid UTF-8: encoding/json rewrites it
			}
			j += size
		default: // a control byte
			return "", 0, false
		}
	}
}

// unescape writes raw, which holds exactly escapes two-byte escapes that
// decodeString has checked, with each escape replaced by its byte.
func unescape(raw []byte, escapes int) string {
	var sb strings.Builder
	sb.Grow(len(raw) - escapes)
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			return sb.String()
		}
		sb.Write(raw[:k])
		sb.WriteByte(unescapeByte[raw[k+1]])
		raw = raw[k+2:]
	}
}
