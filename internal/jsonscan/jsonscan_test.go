package jsonscan

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzSkipMatchesValid: Skip followed by End accepts a document exactly when
// encoding/json's scanner does — syntax, escapes, number grammar, the nesting
// bound. The typed readers are held to encoding/json's conversions where the
// decoders built on them are (internal/serve's differential target).
func FuzzSkipMatchesValid(f *testing.F) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, seed := range []string{
		``, ` `, `null`, ` true `, `fals`, `nul`, `0`, `-0`, `-`, `01`, `1.`, `.5`, `1e`, `1e+`, `-1.25E-7`, `1 2`,
		`""`, `"a\"b\\c\/\b\f\n\r\t\u00e9"`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"\x1f\"", "\"\x7f\xff\"", `"abc`, `"a\`,
		`[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[1,[2,{"a":[]}],"x"]`, `]`, `[}`,
		`{}`, `{ }`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":{"b":{"c":[{}]}}}`, `{"a":1}}`, `{]`,
		deep(MaxDepth), deep(MaxDepth + 1), strings.Repeat(`{"a":`, MaxDepth) + `1` + strings.Repeat(`}`, MaxDepth),
		strings.Repeat("[", 100), "\ufeff[]", "[]\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(data)
		s.Skip()
		if err := s.End(); (err == nil) != json.Valid(data) {
			t.Fatalf("Skip says %v, json.Valid says %v", err, json.Valid(data))
		}
	})
}

// TestReaders walks one document with every reader, spelled the awkward way:
// whitespace everywhere, fields out of table order, folded and escaped keys,
// an unknown key, nulls that must leave their targets alone.
func TestReaders(t *testing.T) {
	doc := " { \"S\" : \"caf\\u00e9 \xff\" , \"\\u0069\" : -12 , \"skip\" : [ { \"x\" : null } , 1e3 ] ," +
		" \"u\" : 18446744073709551615 , \"\u017f2\" : null , \"f\" : [ -0 , 2.5e-1 , 9007199254740993 , null ] ," +
		" \"b\" : [ true , false , null ] , \"m\" : { \"+7\" : 1 , \"07\" : 2 , \"\\u0038\" : 3 } , \"strs\" : [ \"a\" , null ] ," +
		" \"nil\" : null , \"empty\" : [ ] } "
	names := []string{"i", "u", "s", "s2", "f", "b", "m", "strs", "nil", "empty"}
	var (
		i            = 99
		u            uint64
		str, str2    = "", "kept"
		floats       []float64
		bools        []bool
		m            = map[int]int{}
		strs, empty  []string
		sawNil, seen = false, uint32(0)
	)
	s := New([]byte(doc))
	if !s.BeginObject() {
		t.Fatal(s.End())
	}
	for s.More('}') {
		switch s.Field(names, &seen) {
		case 0:
			s.Int(&i)
		case 1:
			s.Uint64(&u)
		case 2:
			s.String(&str)
		case 3:
			s.String(&str2)
		case 4:
			for ok := s.BeginArray(); ok && s.More(']'); {
				f := 7.0
				s.Float(&f)
				floats = append(floats, f)
			}
		case 5:
			for ok := s.BeginArray(); ok && s.More(']'); {
				b := true
				s.Bool(&b)
				bools = append(bools, b)
			}
		case 6:
			for ok := s.BeginObject(); ok && s.More('}'); {
				k := s.IntKey()
				s.Int(&i)
				m[k] = i
			}
		case 7:
			strs = s.Strings()
		case 8:
			sawNil = s.Null()
		case 9:
			empty = s.Strings()
		default:
			s.Skip()
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	nines := 9007199254740993.0 // rounds to even, as ParseFloat rounds it
	if i != 3 || u != math.MaxUint64 || str != "café \ufffd" || str2 != "kept" || !sawNil ||
		!reflect.DeepEqual(floats, []float64{0, 0.25, nines, 7}) || !math.Signbit(floats[0]) ||
		!reflect.DeepEqual(bools, []bool{true, false, true}) ||
		!reflect.DeepEqual(m, map[int]int{7: 2, 8: 3}) ||
		!reflect.DeepEqual(strs, []string{"a", ""}) || empty == nil || len(empty) != 0 {
		t.Fatalf("i=%d u=%d str=%q str2=%q nil=%v floats=%v bools=%v m=%v strs=%q empty=%#v",
			i, u, str, str2, sawNil, floats, bools, m, strs, empty)
	}
}

// TestReadersRefuse: what each reader must not take, and that the first
// failure sticks.
func TestReadersRefuse(t *testing.T) {
	read := map[string]func(s *Scanner){
		"int":    func(s *Scanner) { s.Int(new(int)) },
		"uint":   func(s *Scanner) { s.Uint64(new(uint64)) },
		"float":  func(s *Scanner) { s.Float(new(float64)) },
		"string": func(s *Scanner) { s.String(new(string)) },
		"bool":   func(s *Scanner) { s.Bool(new(bool)) },
		"object": func(s *Scanner) { s.BeginObject() },
		"array":  func(s *Scanner) { s.BeginArray() },
		"key": func(s *Scanner) {
			for ok := s.BeginObject(); ok && s.More('}'); {
				s.IntKey()
				s.Skip()
			}
		},
	}
	for _, tc := range []struct{ reader, doc string }{
		{"int", `1.0`}, {"int", `1e2`}, {"int", `9223372036854775808`}, {"int", `"1"`}, {"int", `true`}, {"int", `01`}, {"int", `-`},
		{"uint", `-1`}, {"uint", `-0`}, {"uint", `18446744073709551616`}, {"uint", `1.5`},
		{"float", `1e999`}, {"float", `"1"`}, {"float", `.5`}, {"float", `nan`},
		{"string", `1`}, {"string", `"a`}, {"string", `{}`},
		{"bool", `1`}, {"bool", `"true"`}, {"bool", `truth`},
		{"object", `[]`}, {"object", `1`}, {"array", `{}`}, {"array", `"a"`},
		{"key", `{" 1":0}`}, {"key", `{"1.0":0}`}, {"key", `{"":0}`}, {"key", `{"9223372036854775808":0}`}, {"key", `{"0x1":0}`},
	} {
		s := New([]byte(tc.doc))
		read[tc.reader](s)
		first := s.End()
		if first == nil {
			t.Errorf("%s reader took %s", tc.reader, tc.doc)
			continue
		}
		s.Skip()
		if s.More(']') || s.BeginObject() || s.End() != first {
			t.Errorf("%s reader on %s: the scan went on after %v", tc.reader, tc.doc, first)
		}
	}
}

func TestFieldDuplicates(t *testing.T) {
	names := []string{"id", "type"}
	for doc, dup := range map[string]bool{
		`{"id":1,"type":2}`:            false,
		`{"type":2,"id":1}`:            false,
		`{"x":1,"x":2,"id":1}`:         false,
		`{"id":1,"id":1}`:              true,
		`{"id":1,"type":2,"ID":1}`:     true,
		`{"type":2,"\u0074ype":2}`:     true,
		`{"id":1,"x":{"id":1,"id":2}}`: false, // skipped values are nobody's schema
	} {
		s := New([]byte(doc))
		var seen uint32
		for ok := s.BeginObject(); ok && s.More('}'); {
			if s.Field(names, &seen) < 0 {
				s.Skip()
			} else {
				s.Int(new(int))
			}
		}
		if err := s.End(); errors.Is(err, ErrDuplicateKey) != dup || !dup && err != nil {
			t.Errorf("%s: %v, want duplicate=%v", doc, err, dup)
		}
	}
}
