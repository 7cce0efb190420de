package roadnet

import (
	"bytes"
	"fmt"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// Cursor is a strict JSON reader over one in-memory document. It decodes
// the network wire format and the request documents built on it without
// reflection, and it produces exactly the values encoding/json would:
// floats go through strconv.ParseFloat, integers through strconv.ParseInt
// rules (so 1.0, 1e2 and overflow are errors), member names match
// case-insensitively with encoding/json's folding, null leaves a scalar
// as it was and sets a slice or pointer to nil, and [] is an empty,
// non-nil slice.
//
// It is stricter than encoding/json in two ways: a member name that
// appears twice in one object is an error (encoding/json keeps the last
// value and merges repeated objects), and End rejects anything but
// whitespace after the document. Unknown member names are always errors.
//
// Errors are sticky: after the first one every method is a no-op and
// End returns that error.
type Cursor struct {
	data []byte
	pos  int
	err  error
	buf  []byte // unescaped member names and strings that need it
}

// NewCursor returns a cursor at the start of data.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// End checks that only whitespace follows the document and returns the
// first error the cursor met.
func (c *Cursor) End() error {
	if c.peek(); c.err == nil && c.pos < len(c.data) {
		c.fail("trailing data after the document")
	}
	return c.err
}

func (c *Cursor) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("json: %s (offset %d)", fmt.Sprintf(format, args...), c.pos)
	}
}

// unexpected reports that the next value is not the wanted kind.
func (c *Cursor) unexpected(want string) {
	if c.pos >= len(c.data) {
		c.fail("unexpected end of input, want %s", want)
		return
	}
	c.fail("want %s, found %q", want, c.data[c.pos])
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input. A NUL byte is never valid there, so callers that treat 0 as
// "no valid byte" need not tell the two apart.
func (c *Cursor) peek() byte {
	for ; c.pos < len(c.data); c.pos++ {
		switch b := c.data[c.pos]; b {
		case ' ', '\t', '\n', '\r':
		default:
			return b
		}
	}
	return 0
}

// literal consumes the keyword lit (true, false or null).
func (c *Cursor) literal(lit string) bool {
	end := c.pos + len(lit)
	if end > len(c.data) || string(c.data[c.pos:end]) != lit {
		c.fail("invalid literal, want %s", lit)
		return false
	}
	c.pos = end
	return true
}

// next skips whitespace and returns the byte that starts the next
// value. A null is consumed and reported as 'n', so a reader can leave
// its target as it was. After an error next returns 0, which every
// reader treats as unexpected — a no-op once an error is recorded.
func (c *Cursor) next() byte {
	if c.err != nil {
		return 0
	}
	b := c.peek()
	if b == 'n' {
		c.literal("null")
	}
	return b
}

// Object decodes an object member by member: for each member, field is
// called with the member's index in names to decode its value. A name
// matches exactly or, failing that, case-insensitively; an unknown
// name, a name that appears twice and a missing separator are errors.
// names may hold at most 64 entries. null is consumed with no call.
func (c *Cursor) Object(names []string, field func(i int)) {
	switch c.next() {
	case 'n':
		return
	case '{':
		c.pos++
	default:
		c.unexpected("object")
		return
	}
	var seen uint64 // one bit per member read
	for i := c.member(names, &seen); i >= 0; i = c.member(names, &seen) {
		field(i)
	}
}

// member reads the next member name of the object being decoded and
// returns its index in names, positioned at the member's value; it
// returns -1 once the closing '}' is consumed or on an error.
func (c *Cursor) member(names []string, seen *uint64) int {
	if c.err != nil {
		return -1
	}
	b := c.peek()
	if b == '}' {
		c.pos++
		return -1
	}
	if *seen != 0 { // a member was read, so a separator must follow it
		if b != ',' {
			c.unexpected("',' or '}'")
			return -1
		}
		c.pos++
		b = c.peek()
	}
	if b != '"' {
		c.unexpected("member name")
		return -1
	}
	// Try the member the document order suggests, the first one not yet
	// seen, in place before reading the name in general.
	if i := bits.TrailingZeros64(^*seen); i < len(names) && c.quoted(names[i]) {
		return c.colon(seen, i)
	}
	name := c.name()
	if c.err != nil {
		return -1
	}
	i := match(name, names)
	if i < 0 {
		c.fail("unknown field %q", name)
		return -1
	}
	if *seen&(1<<i) != 0 {
		c.fail("duplicate member %q", name)
		return -1
	}
	return c.colon(seen, i)
}

// colon consumes the ':' after member i's name and marks it seen.
func (c *Cursor) colon(seen *uint64, i int) int {
	if c.peek() != ':' {
		c.unexpected("':'")
		return -1
	}
	c.pos++
	*seen |= 1 << i
	return i
}

// quoted consumes the string at c.pos if it is exactly s, which must
// hold no quote, backslash or control character.
func (c *Cursor) quoted(s string) bool {
	end := c.pos + 1 + len(s)
	if end >= len(c.data) || c.data[end] != '"' || string(c.data[c.pos+1:end]) != s {
		return false
	}
	c.pos = end + 1
	return true
}

// name reads a member name. Plain ASCII names without escapes, which is
// every name a client normally sends, are returned as a window of the
// input; the rest are unescaped into the cursor's scratch buffer.
func (c *Cursor) name() []byte {
	start := c.pos + 1
	for i := start; i < len(c.data); i++ {
		b := c.data[i]
		if b == '"' {
			c.pos = i + 1
			return c.data[start:i]
		}
		if b == '\\' || b < ' ' || b >= utf8.RuneSelf {
			break
		}
	}
	c.buf = c.appendString(c.buf[:0])
	return c.buf
}

// match finds name in names: exactly first, then under encoding/json's
// case folding.
func match(name []byte, names []string) int {
	for i, n := range names {
		if string(name) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(name, n) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether name equals the ASCII field name under
// encoding/json's folding: ASCII letters compare without case, and a
// multi-byte rune r counts as unicode.ToUpper(unicode.SimpleFold(r)),
// which is how the Kelvin sign matches "k" and the long s matches "s".
func foldEqual(name []byte, field string) bool {
	j := 0
	for i := 0; i < len(name); {
		if j >= len(field) {
			return false
		}
		r, size := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(name[i:])
			r = unicode.ToUpper(unicode.SimpleFold(r))
		}
		if upper(r) != upper(rune(field[j])) {
			return false
		}
		i += size
		j++
	}
	return j == len(field)
}

func upper(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// appendString consumes the string at c.pos, appending its unescaped
// bytes to dst. It follows encoding/json byte for byte: invalid UTF-8
// and unpaired surrogate escapes become U+FFFD, and control characters
// and unknown escapes are errors.
func (c *Cursor) appendString(dst []byte) []byte {
	d := c.data
	i := c.pos + 1
	for i < len(d) {
		b := d[i]
		switch {
		case b == '"':
			c.pos = i + 1
			return dst
		case b < ' ':
			c.pos = i
			c.fail("control character in string")
			return dst
		case b == '\\':
			if i+1 >= len(d) {
				c.pos = len(d)
				c.fail("unexpected end of input in string")
				return dst
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(d[i:])
				if r < 0 {
					c.pos = i
					c.fail("invalid \\u escape in string")
					return dst
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(d[i:])); pair != unicode.ReplacementChar {
						i += 6
						dst = utf8.AppendRune(dst, pair)
						continue
					}
					r = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default:
				c.pos = i
				c.fail("invalid escape %q in string", e)
				return dst
			}
			i += 2
		case b < utf8.RuneSelf:
			dst = append(dst, b)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	c.pos = len(d)
	c.fail("unexpected end of input in string")
	return dst
}

// hex4 decodes a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, b := range s[2:6] {
		switch {
		case '0' <= b && b <= '9':
			b -= '0'
		case 'a' <= b && b <= 'f':
			b -= 'a' - 10
		case 'A' <= b && b <= 'F':
			b -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(b)
	}
	return r
}

// elem reports whether the array being decoded has an element at index
// i, consuming the ',' before it; at the closing ']' it consumes it and
// reports false. Call it with i = 0, 1, 2, … in turn.
func (c *Cursor) elem(i int) bool {
	if c.err != nil {
		return false
	}
	b := c.peek()
	if b == ']' {
		c.pos++
		return false
	}
	if i > 0 {
		if b != ',' {
			c.unexpected("',' or ']'")
			return false
		}
		c.pos++
	}
	return true
}

// Slice decodes an array into *dst, each element through elem into a
// zero value. null sets *dst to nil; [] sets it to an empty, non-nil
// slice.
func Slice[S ~[]E, E any](c *Cursor, dst *S, elem func(*Cursor, *E)) {
	switch c.next() {
	case 'n':
		*dst = nil
		return
	case '[':
		c.pos++
	default:
		c.unexpected("array")
		return
	}
	var zero E
	out := make(S, 0, lenHint(c.data[c.pos:], unsafe.Sizeof(zero)))
	for i := 0; c.elem(i); i++ {
		out = append(out, zero)
		elem(c, &out[i])
	}
	*dst = out
}

// lenHint guesses, for a capacity, the length of the array whose
// elements start at rest: its objects or, for scalars, its commas plus
// one, up to the first ']'. No element of this package's types holds an
// array or a string, so in a valid document that bracket closes the
// array. The guess never exceeds the bytes up to that bracket over the
// element size, so a hostile body cannot make it allocate more than its
// own length.
func lenHint(rest []byte, elemSize uintptr) int {
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	n := bytes.Count(rest[:end], []byte{'{'})
	if n == 0 {
		n = bytes.Count(rest[:end], []byte{','}) + 1
	}
	return min(n, end/int(max(elemSize, 1)))
}

// Pointer decodes an object into a new value that *dst then points to,
// through decode. null sets *dst to nil.
func Pointer[T any](c *Cursor, dst **T, decode func(*Cursor, *T)) {
	if c.next() == 'n' {
		*dst = nil
		return
	}
	if c.err != nil {
		return
	}
	v := new(T)
	decode(c, v)
	*dst = v
}

// String decodes a string into *dst; null leaves it unchanged.
func (c *Cursor) String(dst *string) {
	switch c.next() {
	case 'n':
		return
	case '"':
	default:
		c.unexpected("string")
		return
	}
	start := c.pos + 1
	for i := start; i < len(c.data); i++ {
		b := c.data[i]
		if b == '"' {
			c.pos = i + 1
			*dst = string(c.data[start:i])
			return
		}
		if b == '\\' || b < ' ' || b >= utf8.RuneSelf {
			break
		}
	}
	c.buf = c.appendString(c.buf[:0])
	if c.err == nil {
		*dst = string(c.buf)
	}
}

// Bool decodes true or false into *dst; null leaves it unchanged.
func (c *Cursor) Bool(dst *bool) {
	switch c.next() {
	case 'n':
	case 't':
		if c.literal("true") {
			*dst = true
		}
	case 'f':
		if c.literal("false") {
			*dst = false
		}
	default:
		c.unexpected("boolean")
	}
}

// number consumes the next value as a JSON number and returns its bytes;
// ok is false after a null (consumed, no number) or an error.
func (c *Cursor) number(want string) (tok []byte, ok bool) {
	switch b := c.next(); {
	case b == 'n':
		return nil, false
	case b != '-' && (b < '0' || b > '9'):
		c.unexpected(want)
		return nil, false
	}
	d, start := c.data, c.pos
	i := start
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		c.pos = i
		c.fail("invalid number")
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		if i+1 >= len(d) || d[i+1] < '0' || d[i+1] > '9' {
			c.pos = i + 1
			c.fail("invalid number: no digit after the decimal point")
			return nil, false
		}
		i = digits(d, i+1)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			c.pos = i
			c.fail("invalid number: no digit in the exponent")
			return nil, false
		}
		i = digits(d, i)
	}
	c.pos = i
	return d[start:i], true
}

func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// Float decodes a number into *dst with strconv.ParseFloat, so it gets
// the bits encoding/json would; null leaves it unchanged, and a number
// beyond float64's range is an error.
func (c *Cursor) Float(dst *float64) {
	tok, ok := c.number("number")
	if !ok {
		return
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.fail("number %s is out of float64 range", tok)
		return
	}
	*dst = v
}

// Int64 decodes an integer into *dst; null leaves it unchanged. A
// fraction, an exponent or a value outside int64 is an error, as
// strconv.ParseInt would have it.
func (c *Cursor) Int64(dst *int64) {
	if v, ok := c.integer(); ok {
		*dst = v
	}
}

// Int is Int64 for an int.
func (c *Cursor) Int(dst *int) {
	v, ok := c.integer()
	if !ok {
		return
	}
	if int64(int(v)) != v {
		c.fail("number %d overflows int", v)
		return
	}
	*dst = int(v)
}

func (c *Cursor) integer() (int64, bool) {
	tok, ok := c.number("integer")
	if !ok {
		return 0, false
	}
	v, err := parseInt(tok)
	if err != nil {
		c.fail("number %s is not a 64-bit integer", tok)
		return 0, false
	}
	return v, true
}

// Uint64 decodes a non-negative integer into *dst; null leaves it
// unchanged. A sign, a fraction, an exponent or a value outside uint64
// is an error, as strconv.ParseUint would have it.
func (c *Cursor) Uint64(dst *uint64) {
	tok, ok := c.number("integer")
	if !ok {
		return
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		c.fail("number %s is not an unsigned 64-bit integer", tok)
		return
	}
	*dst = v
}

// parseInt is strconv.ParseInt(tok, 10, 64) with a fast path for the
// short plain integers request documents carry.
func parseInt(tok []byte) (int64, error) {
	digitsOnly := tok
	if len(tok) > 0 && tok[0] == '-' {
		digitsOnly = tok[1:]
	}
	if len(digitsOnly) == 0 || len(digitsOnly) > 18 {
		return strconv.ParseInt(string(tok), 10, 64)
	}
	var v int64
	for _, b := range digitsOnly {
		if b < '0' || b > '9' {
			return strconv.ParseInt(string(tok), 10, 64)
		}
		v = v*10 + int64(b-'0')
	}
	if len(digitsOnly) < len(tok) {
		v = -v
	}
	return v, nil
}

// Member names of the network wire format: encoding/json's defaults,
// the Go field names.
var (
	networkFields      = []string{"Intersections", "Segments"}
	intersectionFields = []string{"ID", "X", "Y"}
	segmentFields      = []string{"ID", "From", "To", "Length", "Density"}
	updateFields       = []string{"segment", "density"}
)

// Network decodes a network object into n; null leaves n unchanged.
// Request documents embed it with Pointer(c, &field, (*Cursor).Network).
func (c *Cursor) Network(n *Network) {
	c.Object(networkFields, func(i int) {
		switch i {
		case 0:
			Slice(c, &n.Intersections, (*Cursor).intersection)
		case 1:
			Slice(c, &n.Segments, (*Cursor).segment)
		}
	})
}

func (c *Cursor) intersection(p *Intersection) {
	c.Object(intersectionFields, func(i int) {
		switch i {
		case 0:
			c.Int(&p.ID)
		case 1:
			c.Float(&p.X)
		case 2:
			c.Float(&p.Y)
		}
	})
}

func (c *Cursor) segment(s *Segment) {
	c.Object(segmentFields, func(i int) {
		switch i {
		case 0:
			c.Int(&s.ID)
		case 1:
			c.Int(&s.From)
		case 2:
			c.Int(&s.To)
		case 3:
			c.Float(&s.Length)
		case 4:
			c.Float(&s.Density)
		}
	})
}

// Delta decodes a density delta (an array of {"segment", "density"}
// objects) into *d.
func (c *Cursor) Delta(d *DensityDelta) {
	Slice(c, d, (*Cursor).update)
}

func (c *Cursor) update(u *DensityUpdate) {
	c.Object(updateFields, func(i int) {
		switch i {
		case 0:
			c.Int(&u.Segment)
		case 1:
			c.Float(&u.Density)
		}
	})
}
