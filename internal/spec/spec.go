// Package spec is the call-tree lexer under the repo's two spec grammars:
// detector specs (the root package's parse.go) and scenario specs
// (internal/scenario). Both are nests of
//
//	name(item, item, ...; option, option, ...)
//
// where an item is a nested call, a bare word ("knn+sw+kswin") or a
// key=value option, and the section after the ";" holds options only.
// Parse lexes a string into that tree and Options gives typed access to
// one call's key=value pairs; what the names and words mean, and which of
// them a position admits, is the grammar's business. Errors carry no
// package prefix — callers wrap them with the spec they were parsing.
package spec

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Node is one item of a call tree. Exactly one shape applies: a call
// (IsCall; Args and Opts hold its items), an option (IsOption; Name is the
// key), or a bare word.
type Node struct {
	// Name is the call name, option key or bare word, lower-cased and
	// trimmed.
	Name string
	// Value is an option's value, trimmed, case preserved and non-empty.
	Value string

	IsCall   bool
	IsOption bool
	// Args are a call's items before the ";", Opts the ones after it. Opts
	// is non-nil exactly when the call has a ";".
	Args, Opts []*Node
}

// Parse lexes s as one item followed by nothing but whitespace.
func Parse(s string) (*Node, error) {
	lx := &lexer{s: s}
	n, err := lx.item()
	switch {
	case err != nil:
		return nil, err
	case n.empty():
		return nil, fmt.Errorf("expected a name at offset %d", lx.pos)
	case lx.pos < len(s):
		return nil, fmt.Errorf("trailing input at offset %d", lx.pos)
	}
	return n, nil
}

// empty reports a bare word without a character in it: what lies between
// two adjacent delimiters.
func (n *Node) empty() bool { return n.Name == "" && !n.IsCall && !n.IsOption }

type lexer struct {
	s   string
	pos int
}

// word consumes input up to the next byte in stop and returns it trimmed.
func (lx *lexer) word(stop string) string {
	start := lx.pos
	for lx.pos < len(lx.s) && strings.IndexByte(stop, lx.s[lx.pos]) < 0 {
		lx.pos++
	}
	return strings.TrimSpace(lx.s[start:lx.pos])
}

// item lexes one item and leaves pos at the delimiter that ends it.
func (lx *lexer) item() (*Node, error) {
	n := &Node{Name: strings.ToLower(lx.word("(),;="))}
	if lx.pos == len(lx.s) {
		return n, nil
	}
	switch lx.s[lx.pos] {
	case '=':
		lx.pos++
		n.IsOption = true
		if n.Value = lx.word("(),;"); n.Value == "" {
			return nil, fmt.Errorf("empty value for %q at offset %d", n.Name, lx.pos)
		}
	case '(':
		if n.Name == "" {
			return nil, fmt.Errorf("expected a name at offset %d", lx.pos)
		}
		lx.pos++
		n.IsCall = true
		return n, lx.items(n)
	}
	return n, nil
}

// items lexes a call's items up to and including its ")". An empty item
// is only legal as an empty section — name() or name(a;) — and, because
// the detector grammar has always skipped them, anywhere among the
// options: name(a; k=v,).
func (lx *lexer) items(call *Node) error {
	list := &call.Args
	for {
		at := lx.pos
		it, err := lx.item()
		if err != nil {
			return err
		}
		if lx.pos == len(lx.s) {
			return fmt.Errorf("%s(...) is not closed", call.Name)
		}
		delim := lx.s[lx.pos]
		lx.pos++
		switch {
		case !it.empty():
			*list = append(*list, it)
		case call.Opts != nil || (len(*list) == 0 && delim != ','):
		default:
			return fmt.Errorf("expected a name at offset %d", at)
		}
		switch delim {
		case ',':
		case ';':
			if call.Opts != nil {
				return fmt.Errorf("%s: more than one options section", call.Name)
			}
			call.Opts = []*Node{}
			list = &call.Opts
		case ')':
			lx.pos = len(lx.s) - len(strings.TrimLeftFunc(lx.s[lx.pos:], unicode.IsSpace))
			return nil
		default: // "(" or "=" straight after a complete item
			return fmt.Errorf(`%s: expected "," or ")" at offset %d`, call.Name, lx.pos-1)
		}
	}
}

// Options is typed access to the key=value items of one call. The
// accessors record the first conversion error and which keys were asked
// for; Finish reports the first thing wrong: an item that is not key=value,
// a repeated key, a bad value, or a key nobody asked for.
type Options struct {
	owner string
	vals  map[string]string
	used  map[string]bool
	err   error
}

// NewOptions collects a call's option items; owner names it in errors.
func NewOptions(owner string, items []*Node) *Options {
	o := &Options{owner: owner, vals: make(map[string]string, len(items)), used: make(map[string]bool, len(items))}
	for _, it := range items {
		_, dup := o.vals[it.Name]
		switch {
		case o.err != nil:
		case !it.IsOption:
			o.err = fmt.Errorf("%s: option %q is not key=value", owner, it.Name)
		case dup:
			o.err = fmt.Errorf("%s: duplicate option %q", owner, it.Name)
		}
		o.vals[it.Name] = it.Value
	}
	return o
}

// Has reports whether key was given.
func (o *Options) Has(key string) bool {
	_, ok := o.vals[key]
	return ok
}

// Bad records that key's value is unacceptable; want says what is.
func (o *Options) Bad(key, want string) {
	if o.err == nil {
		o.err = fmt.Errorf("%s: bad %s=%q (want %s)", o.owner, key, o.vals[key], want)
	}
}

// get is the accessors' shared body: key's value through conv, or def
// when it was not given or does not convert.
func get[T any](o *Options, key string, def T, want string, conv func(string) (T, error)) T {
	o.used[key] = true
	s, ok := o.vals[key]
	if !ok {
		return def
	}
	v, err := conv(s)
	if err != nil {
		o.Bad(key, want)
		return def
	}
	return v
}

// Str returns key's value, or def when it was not given.
func (o *Options) Str(key, def string) string {
	return get(o, key, def, "", func(s string) (string, error) { return s, nil })
}

// Int returns key's value as an integer, or def when it was not given.
func (o *Options) Int(key string, def int) int {
	return get(o, key, def, "an integer", strconv.Atoi)
}

// Float returns key's value as a float, or def when it was not given.
func (o *Options) Float(key string, def float64) float64 {
	return get(o, key, def, "a number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// Duration returns key's value as a duration, or def when it was not given.
func (o *Options) Duration(key string, def time.Duration) time.Duration {
	return get(o, key, def, `a duration like "250ms"`, time.ParseDuration)
}

// Finish reports the first malformed, repeated or bad option, or else one
// no accessor read.
func (o *Options) Finish() error {
	if o.err != nil {
		return o.err
	}
	for k := range o.vals {
		if !o.used[k] {
			return fmt.Errorf("%s: unknown option %q", o.owner, k)
		}
	}
	return nil
}
