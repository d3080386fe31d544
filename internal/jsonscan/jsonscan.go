// Package jsonscan reads a JSON document in one forward pass over its
// bytes, for decoders of untrusted uploads that must accept exactly what
// encoding/json accepts while skipping its reflection and its separate
// validation walk.
//
// A Scanner agrees with encoding/json on everything its decoders can
// observe: the grammar and its four whitespace bytes; the nesting limit
// (MaxDepth open arrays and objects); string unquoting, including the
// replacement of invalid UTF-8 and unpaired surrogate escapes by U+FFFD;
// and numbers, which are handed to strconv as the text they are, so a
// float keeps the exact bits encoding/json would give it. The typed
// readers (Float, Int, Str, Object, Array) read null as "leave the zero
// value" and reject any other kind of value, as encoding/json does for a
// Go field of that type. Nothing after the first value is read.
//
// The Scanner never recurses on its input: Skip walks nested values with
// an explicit stack, and the typed readers nest only as deep as the
// caller's schema, so no document can exhaust the goroutine stack.
package jsonscan

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: a document may hold at most
// this many arrays and objects open at once.
const MaxDepth = 10000

// Scanner reads one JSON value from a byte slice.
type Scanner struct {
	data  []byte
	pos   int
	depth int // arrays and objects open at pos
}

// New returns a Scanner at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Offset is the byte offset the Scanner has read up to: after a value is
// consumed, the end of that value.
func (s *Scanner) Offset() int { return s.pos }

// Seek moves the Scanner to offset off. The caller must have read the
// bytes it passes over by other means, as one whole value at the
// Scanner's current nesting depth, for the rest of the read to be valid.
func (s *Scanner) Seek(off int) { s.pos = off }

// Peek skips whitespace and returns the first byte of what follows, or 0
// at the end of the input.
func (s *Scanner) Peek() byte {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return c
		}
		s.pos++
	}
	return 0
}

// errorf reports a document encoding/json would reject — a syntax error,
// a value of the wrong kind, a number out of its type's range — at the
// current offset.
func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the current position, which cannot start
// or continue the value being read (context says where the reader was).
func (s *Scanner) unexpected(context string) error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of JSON input")
	}
	return s.errorf("invalid character %q %s", s.data[s.pos], context)
}

// mismatch reports a value that is not the kind the caller reads: a type
// error when the value is well-formed at its start, a syntax error when
// nothing can start there.
func (s *Scanner) mismatch(want string) error {
	var kind string
	switch c := s.Peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return s.unexpected("looking for beginning of value")
	}
	return s.errorf("cannot read %s as %s", kind, want)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// enter opens an array or object at the current byte.
func (s *Scanner) enter() error {
	if s.depth == MaxDepth {
		return s.errorf("exceeded max depth %d", MaxDepth)
	}
	s.depth++
	s.pos++
	return nil
}

// literal consumes the literal word (true, false or null) at the current
// position.
func (s *Scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if s.pos >= len(s.data) || s.data[s.pos] != word[i] {
			return s.unexpected("in literal " + word)
		}
		s.pos++
	}
	return nil
}

// number consumes a number token and returns its text.
func (s *Scanner) number() ([]byte, error) {
	d, i := s.data, s.pos
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	default:
		s.pos = i
		return nil, s.unexpected("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			s.pos = i
			return nil, s.unexpected("after decimal point in numeric literal")
		}
		for ; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.pos = i
			return nil, s.unexpected("in exponent of numeric literal")
		}
		for ; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	s.pos = i
	return d[start:i], nil
}

// str consumes a string token and returns the bytes between its quotes;
// plain reports that they hold neither escapes nor non-ASCII bytes, so
// they are the string's value as they stand.
func (s *Scanner) str() (raw []byte, plain bool, err error) {
	d := s.data
	start := s.pos + 1
	plain = true
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(d) {
				s.pos = len(d)
				return nil, false, s.unexpected("")
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(d) || !isHex(d[k]) {
						s.pos = k
						return nil, false, s.unexpected("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				s.pos = i + 1
				return nil, false, s.unexpected("in string escape code")
			}
		case c < ' ':
			s.pos = i
			return nil, false, s.unexpected("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	s.pos = len(d)
	return nil, false, s.unexpected("")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the value of a validated string token's raw bytes, as
// encoding/json computes it: escapes resolved, a surrogate escape paired
// with the escape after it when the two form a pair and replaced by
// U+FFFD otherwise, and every byte of invalid UTF-8 replaced by U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default: // '"', '\\' or '/'
				c = e
			}
			out = append(out, c)
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// hex4 decodes the four validated hex digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Skip consumes one value of any kind, checking that it is well-formed
// and nests no deeper than MaxDepth.
func (s *Scanner) Skip() error {
	var open []byte // '{' or '[' per container Skip has entered
	for {
		// At the start of a value.
		switch c := s.Peek(); {
		case c == '{' || c == '[':
			if err := s.enter(); err != nil {
				return err
			}
			if s.Peek() == c+2 { // empty: '}' and ']' follow their openers by two
				s.pos++
				s.depth--
				break
			}
			open = append(open, c)
			if c == '{' {
				if _, _, err := s.name(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := s.str(); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := s.number(); err != nil {
				return err
			}
		case c == 't':
			if err := s.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := s.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return err
			}
		default:
			return s.unexpected("looking for beginning of value")
		}
		// After a complete value: close what it completes, then go on to
		// the next element or member.
		for len(open) > 0 {
			top := open[len(open)-1]
			c := s.Peek()
			if c == top+2 {
				s.pos++
				s.depth--
				open = open[:len(open)-1]
				continue
			}
			if c != ',' {
				if top == '{' {
					return s.unexpected("after object key:value pair")
				}
				return s.unexpected("after array element")
			}
			s.pos++
			if top == '{' {
				if _, _, err := s.name(); err != nil {
					return err
				}
			}
			break
		}
		if len(open) == 0 {
			return nil
		}
	}
}

// name consumes an object member's name and the colon after it, returning
// the name's raw bytes and whether they are plain (see str).
func (s *Scanner) name() (raw []byte, plain bool, err error) {
	if s.Peek() != '"' {
		return nil, false, s.unexpected("looking for beginning of object key string")
	}
	if raw, plain, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.Peek() != ':' {
		return nil, false, s.unexpected("after object key")
	}
	s.pos++
	return raw, plain, nil
}

// Object reads an object, calling member with each member's name once
// the Scanner stands at the member's value; member must consume that
// value. The name is unquoted and valid only during the call. A null
// reads as an object with no members.
func (s *Scanner) Object(member func(name []byte) error) error {
	switch s.Peek() {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.mismatch("object")
	}
	if err := s.enter(); err != nil {
		return err
	}
	if s.Peek() == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		raw, plain, err := s.name()
		if err != nil {
			return err
		}
		if !plain {
			raw = unquote(raw)
		}
		if err := member(raw); err != nil {
			return err
		}
		switch s.Peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.unexpected("after object key:value pair")
		}
	}
}

// Array reads an array, calling elem once per element with the Scanner at
// the element; elem must consume it. It reports false for a null, which
// encoding/json reads as a nil slice, and true for any array, even an
// empty one.
func (s *Scanner) Array(elem func() error) (bool, error) {
	switch s.Peek() {
	case 'n':
		return false, s.literal("null")
	case '[':
	default:
		return false, s.mismatch("array")
	}
	if err := s.enter(); err != nil {
		return true, err
	}
	if s.Peek() == ']' {
		s.pos++
		s.depth--
		return true, nil
	}
	for {
		if err := elem(); err != nil {
			return true, err
		}
		switch s.Peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			s.depth--
			return true, nil
		default:
			return true, s.unexpected("after array element")
		}
	}
}

// Str reads a string; null reads as "".
func (s *Scanner) Str() (string, error) {
	switch s.Peek() {
	case 'n':
		return "", s.literal("null")
	case '"':
	default:
		return "", s.mismatch("string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return "", err
	}
	if !plain {
		raw = unquote(raw)
	}
	return string(raw), nil
}

// Float reads a number as strconv.ParseFloat(text, 64) parses it, so the
// result has encoding/json's bits; a number out of float64 range is an
// error. Null reads as 0.
func (s *Scanner) Float() (float64, error) {
	if c := s.Peek(); c != '-' && !isDigit(c) {
		if c == 'n' {
			return 0, s.literal("null")
		}
		return 0, s.mismatch("number")
	}
	text, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, s.errorf("number %s overflows float64", text)
	}
	return f, nil
}

// Int reads a number as an integer of the given bit size; a fraction, an
// exponent or a value out of range is an error, as encoding/json has it
// for Go integer fields. Null reads as 0.
func (s *Scanner) Int(bitSize int) (int64, error) {
	if c := s.Peek(); c != '-' && !isDigit(c) {
		if c == 'n' {
			return 0, s.literal("null")
		}
		return 0, s.mismatch("integer")
	}
	text, err := s.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(text), 10, bitSize)
	if err != nil {
		return 0, s.errorf("number %s is not an int%d", text, bitSize)
	}
	return n, nil
}
