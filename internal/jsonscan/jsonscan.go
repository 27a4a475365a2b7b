// Package jsonscan is the single-pass JSON token scanner the wire decoders of
// queryplan and serve are written on: whitespace, string / number / literal
// tokens, object and array iteration, field-name matching and a validating,
// depth-bounded skip for values nobody asked for.
//
// A decoder walks the document with a Scanner and stores what it reads
// straight into its own fields; the scanner never builds a value tree. It
// accepts exactly what encoding/json's scanner accepts (RFC 8259 syntax, at
// most MaxDepth open containers) and converts tokens the way encoding/json
// stores them into Go ints, floats, strings and int-keyed maps — the contract
// the decoders' differential fuzz test pins. One rule is stricter: a schema
// field repeated within one object is ErrDuplicateKey.
//
// Errors are sticky: the first failure is kept, every later call is a no-op
// that reports "no more", and End returns it. A decoder therefore reads
// straight through and checks once.
package jsonscan

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"unicode"
)

// MaxDepth is how many objects and arrays may be open at once, encoding/json's
// own bound: a document nested deeper is refused, not recursed into.
const MaxDepth = 10000

// ErrDuplicateKey reports a schema field named twice in one object (under any
// spelling that matches it). encoding/json merges such repeats; at a trust
// boundary the plan that was priced should be the plan that was written.
var ErrDuplicateKey = errors.New("duplicate key")

// Scanner is a cursor over one JSON document.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	first bool // a container was opened and More has not looked inside yet
	err   error
}

// New returns a scanner at the start of data, which it reads and never keeps:
// every string it hands out is a copy.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// End checks that only whitespace follows the value just read and returns the
// first failure of the whole scan.
func (s *Scanner) End() error {
	if s.ws(); s.pos < len(s.data) {
		s.fail("trailing data after the value")
	}
	return s.err
}

func (s *Scanner) fail(what string) { s.failAt(s.pos, what) }

func (s *Scanner) failAt(pos int, what string) {
	if s.err == nil {
		s.failWith(fmt.Errorf("json: %s at offset %d", what, pos))
	}
}

// failWith keeps err, the scan's first, and parks the cursor at the end of
// input, where every reader fails and every loop stops.
func (s *Scanner) failWith(err error) {
	if s.err == nil {
		s.err = err
	}
	s.pos = len(s.data)
}

// ws skips whitespace and returns the byte at the cursor, 0 at the end of
// input (a literal NUL is no token either, so callers need not tell them
// apart).
func (s *Scanner) ws() byte {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		s.pos++
	}
	return 0
}

// literal consumes word, which the cursor's first byte announced.
func (s *Scanner) literal(word string) bool {
	if end := s.pos + len(word); end <= len(s.data) && string(s.data[s.pos:end]) == word {
		s.pos = end
		return true
	}
	s.fail("invalid literal")
	return false
}

// Null consumes a null, if that is the next value. A decoder asks first where
// null means something (a pointer or slice to clear); the typed readers below
// treat null as encoding/json does, by leaving their target alone.
func (s *Scanner) Null() bool { return s.ws() == 'n' && s.literal("null") }

func (s *Scanner) open(c byte, what string) bool {
	switch s.ws() {
	case c:
		if s.depth++; s.depth > MaxDepth {
			s.fail("exceeded max depth")
			return false
		}
		s.pos++
		s.first = true
		return true
	case 'n':
		s.literal("null")
	default:
		s.fail("expected " + what)
	}
	return false
}

// BeginObject enters the object at the cursor. It returns false for null and
// for anything that is not an object, which is a failure; follow it with
//
//	for s.More('}') { switch s.Field(names, &seen) { … } }
func (s *Scanner) BeginObject() bool { return s.open('{', "an object") }

// BeginArray enters the array at the cursor, as BeginObject does an object;
// follow it with for s.More(']') { … one element … }.
func (s *Scanner) BeginArray() bool { return s.open('[', "an array") }

// More reports whether the container opened last has another member, consuming
// the comma before it or the closing byte after the last.
func (s *Scanner) More(closing byte) bool {
	c := s.ws()
	if s.first {
		s.first = false
		if c != closing {
			return s.err == nil
		}
	} else if c == ',' {
		s.pos++
		return true
	}
	if c == closing {
		s.pos++
		s.depth--
		return false
	}
	s.fail("expected a comma or the end of the container")
	return false
}

// strSpecial marks the bytes that end the fast walk over a string: the closing
// quote, a backslash, control characters, and everything outside ASCII.
var strSpecial = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c == '"' || c == '\\' || c >= 0x80
	}
	return
}()

// str consumes the string token at the cursor (the caller saw its quote) and
// returns it with its quotes. plain says its content is the bytes between
// them: no escape and nothing outside ASCII.
func (s *Scanner) str() (tok []byte, plain bool) {
	data, i := s.data, s.pos+1
	plain = true
	for i < len(data) {
		c := data[i]
		if !strSpecial[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			tok = data[s.pos : i+1]
			s.pos = i + 1
			return tok, plain
		case c == '\\':
			plain = false
			if i+1 < len(data) && data[i+1] == 'u' {
				if i+6 > len(data) || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) || !isHex(data[i+5]) {
					s.failAt(i, `invalid \u escape`)
					return nil, false
				}
				i += 6
				continue
			}
			if i+1 >= len(data) || !isEscape(data[i+1]) {
				s.failAt(i, "invalid escape")
				return nil, false
			}
			i += 2
		case c < 0x20:
			s.failAt(i, "control character in string")
			return nil, false
		default: // outside ASCII; validity of the UTF-8 is the unquoter's business
			plain = false
			i++
		}
	}
	s.failAt(i, "unterminated string")
	return nil, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isEscape(c byte) bool {
	switch c {
	case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
		return true
	}
	return false
}

// unquote renders a string token. A plain one is its own content; escapes,
// non-ASCII and invalid UTF-8 are encoding/json's to render, so they come out
// exactly as it would store them.
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var v string
	_ = json.Unmarshal(tok, &v) // tok passed str: it is a valid string token
	return v
}

// String reads a string into *p; null leaves *p alone.
func (s *Scanner) String(p *string) {
	switch s.ws() {
	case '"':
		if tok, plain := s.str(); tok != nil {
			*p = unquote(tok, plain)
		}
	case 'n':
		s.literal("null")
	default:
		s.fail("expected a string")
	}
}

// Strings reads an array of strings: nil for null, empty for [], "" for a
// null element.
func (s *Scanner) Strings() []string {
	if !s.BeginArray() {
		return nil
	}
	out := []string{}
	for s.More(']') {
		out = append(out, "")
		s.String(&out[len(out)-1])
	}
	return out
}

// Bool reads true or false into *p; null leaves *p alone.
func (s *Scanner) Bool(p *bool) {
	switch s.ws() {
	case 't':
		if s.literal("true") {
			*p = true
		}
	case 'f':
		if s.literal("false") {
			*p = false
		}
	case 'n':
		s.literal("null")
	default:
		s.fail("expected a boolean")
	}
}

// number consumes the number token at the cursor. integral says it has no
// fraction and no exponent; digits is then its magnitude when that fits 18
// digits, and small says so.
func (s *Scanner) number() (tok []byte, neg, integral, small bool, digits uint64) {
	data, i := s.data, s.pos
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	intStart := i
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			digits = digits*10 + uint64(data[i]-'0')
			i++
		}
	default:
		s.failAt(i, "expected a number")
		return
	}
	integral, small = true, i-intStart <= 18
	if i < len(data) && data[i] == '.' {
		integral = false
		i++
		fracStart := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		if i == fracStart {
			s.failAt(i, "expected a digit after the decimal point")
			return
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		expStart := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		if i == expStart {
			s.failAt(i, "expected a digit in the exponent")
			return
		}
	}
	tok = data[s.pos:i]
	s.pos = i
	return
}

// numeric reports whether a number starts at the cursor; null is consumed and
// anything else fails.
func (s *Scanner) numeric(what string) bool {
	switch c := s.ws(); {
	case c == '-' || '0' <= c && c <= '9':
		return true
	case c == 'n':
		s.literal("null")
	default:
		s.fail("expected " + what)
	}
	return false
}

// Int reads an integer into *p, refusing a fraction, an exponent and anything
// that overflows an int; null leaves *p alone.
func (s *Scanner) Int(p *int) {
	if !s.numeric("an integer") {
		return
	}
	start := s.pos
	tok, neg, integral, small, digits := s.number()
	if tok == nil {
		return
	}
	var n int64
	switch {
	case !integral:
		s.failAt(start, "number is not an integer")
		return
	case small:
		if n = int64(digits); neg {
			n = -n
		}
	default:
		var err error
		if n, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
			s.failAt(start, "integer out of range")
			return
		}
	}
	if int64(int(n)) != n {
		s.failAt(start, "integer out of range")
		return
	}
	*p = int(n)
}

// Uint64 reads an unsigned integer into *p, refusing a sign (even on zero), a
// fraction, an exponent and overflow; null leaves *p alone.
func (s *Scanner) Uint64(p *uint64) {
	if !s.numeric("an unsigned integer") {
		return
	}
	start := s.pos
	tok, neg, integral, small, digits := s.number()
	switch {
	case tok == nil:
	case neg || !integral:
		s.failAt(start, "number is not an unsigned integer")
	case small:
		*p = digits
	default:
		n, err := strconv.ParseUint(string(tok), 10, 64)
		if err != nil {
			s.failAt(start, "integer out of range")
			return
		}
		*p = n
	}
}

// Float reads a number into *p, refusing what overflows a float64; null leaves
// *p alone.
func (s *Scanner) Float(p *float64) {
	if !s.numeric("a number") {
		return
	}
	start := s.pos
	tok, neg, integral, small, digits := s.number()
	switch {
	case tok == nil:
	case integral && small && digits < 1<<53 && (digits != 0 || !neg):
		// Exactly representable, so exactly what ParseFloat returns ("-0" is
		// left to it: negative zero).
		if *p = float64(digits); neg {
			*p = -*p
		}
	default:
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			s.failAt(start, "number out of range")
			return
		}
		*p = f
	}
}

// key consumes an object key and the colon after it.
func (s *Scanner) key() (tok []byte, plain bool) {
	if s.ws() != '"' {
		s.fail("expected an object key")
		return nil, false
	}
	if tok, plain = s.str(); tok == nil {
		return nil, false
	}
	if s.ws() != ':' {
		s.fail("expected a colon after the object key")
		return nil, false
	}
	s.pos++
	return tok, plain
}

// Field consumes the next key of a schema object and returns its index in
// names, -1 for a key the schema does not know (whose value the caller Skips).
// A key matches a name exactly or, failing that, under encoding/json's case
// folding. names are ASCII, at most 32, in the order writers emit them; seen
// is the caller's zero-initialised record of the fields this object has had,
// and a second key for any of them is ErrDuplicateKey.
func (s *Scanner) Field(names []string, seen *uint32) int {
	// The likeliest key is the field after the last one seen, spelled the way
	// encoding/json writes it: one comparison of "name": against the bytes at
	// the cursor, and no walk over the string. Anything else — whitespace, an
	// omitted field, another order or spelling — takes the general road below.
	next := bits.Len32(*seen)
	if next < len(names) {
		name := names[next]
		if end := s.pos + len(name) + 3; end <= len(s.data) && s.data[s.pos] == '"' &&
			string(s.data[s.pos+1:end-2]) == name && s.data[end-2] == '"' && s.data[end-1] == ':' {
			s.pos = end
			*seen |= 1 << next
			return next
		}
	}
	tok, plain := s.key()
	if tok == nil {
		return -1
	}
	idx := -1
	if plain {
		// Matched in place: comparing string(raw) allocates nothing.
		raw, n := tok[1:len(tok)-1], len(names)
		for i, j := 0, next; i < n; i, j = i+1, j+1 {
			if j >= n {
				j -= n
			}
			if string(raw) == names[j] {
				idx = j
				break
			}
		}
	}
	if idx < 0 {
		key := unquote(tok, plain)
		for j, name := range names {
			if equalFold(key, name) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return -1
		}
	}
	bit := uint32(1) << idx
	if *seen&bit != 0 {
		s.failWith(fmt.Errorf("json: %w %q before offset %d", ErrDuplicateKey, names[idx], s.pos))
		return -1
	}
	*seen |= bit
	return idx
}

// equalFold reports whether key equals the ASCII name under encoding/json's
// folding: every rune mapped to the smallest of its simple-fold orbit, so
// "ſeed" and "Kind" (long s, Kelvin sign) match as they do there.
func equalFold(key, name string) bool {
	i := 0
	for _, r := range key {
		if i == len(name) {
			return false
		}
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		c := rune(name[i])
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if r != c {
			return false
		}
		i++
	}
	return i == len(name)
}

// IntKey consumes the next key of an object that is a map keyed by int: the
// key's content parsed as strconv.ParseInt does in base 10, so "+3" and "03"
// are 3 and "3.0", " 3" and "" are failures.
func (s *Scanner) IntKey() int {
	// Up to 18 bare digits, as every writer spells an operator ID, need no
	// unquoting and cannot overflow.
	if s.ws() == '"' {
		data, i, n := s.data, s.pos+1, uint64(0)
		for i < len(data) && i-s.pos <= 18 && data[i]-'0' <= 9 {
			n = n*10 + uint64(data[i]-'0')
			i++
		}
		if i > s.pos+1 && i+1 < len(data) && data[i] == '"' && data[i+1] == ':' && uint64(int(n)) == n {
			s.pos = i + 2
			return int(n)
		}
	}
	tok, plain := s.key()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(unquote(tok, plain), 10, 64)
	if err != nil || int64(int(n)) != n {
		s.failAt(s.pos-len(tok)-1, "object key is not an integer")
		return 0
	}
	return int(n)
}

// Skip consumes one value of any kind, checking its syntax and its nesting
// against MaxDepth without recursing.
func (s *Scanner) Skip() {
	var small [64]byte
	open := small[:0] // the closing byte of every container entered here
	for {
		// A value starts at the cursor.
		switch c := s.ws(); {
		case c == '{' || c == '[':
			if s.depth++; s.depth > MaxDepth {
				s.fail("exceeded max depth")
				return
			}
			s.pos++
			open = append(open, c+2) // '{'+2 == '}', '['+2 == ']'
			if s.ws() == c+2 {
				break // empty: fall out to close it below
			}
			if c == '{' {
				if tok, _ := s.key(); tok == nil {
					return
				}
			}
			continue
		case c == '"':
			if tok, _ := s.str(); tok == nil {
				return
			}
		case c == '-' || '0' <= c && c <= '9':
			if tok, _, _, _, _ := s.number(); tok == nil {
				return
			}
		case c == 't':
			s.literal("true")
		case c == 'f':
			s.literal("false")
		case c == 'n':
			s.literal("null")
		default:
			s.fail("expected a value")
			return
		}
		// A value just ended: close every container it was the last member of.
		for {
			if len(open) == 0 {
				return
			}
			closing := open[len(open)-1]
			if c := s.ws(); c == ',' {
				s.pos++
				if closing == '}' {
					if tok, _ := s.key(); tok == nil {
						return
					}
				}
				break
			} else if c != closing {
				s.fail("expected a comma or the end of the container")
				return
			}
			s.pos++
			s.depth--
			open = open[:len(open)-1]
		}
	}
}
