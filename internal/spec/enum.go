package spec

import (
	"fmt"
	"strings"
)

// Names is one row of an Enum: everything a value is ever called.
type Names struct {
	// Spec is the canonical name the spec grammar prints.
	Spec string
	// Aliases are the other spellings Parse accepts.
	Aliases []string
	// Label is the display name (the paper's Table I/III abbreviation);
	// empty means Spec.
	Label string
}

// Enum names the values 0..len(Rows)-1 of an integer enum, one row per
// value: the single place a name is spelled, from which parsing, the
// canonical printer, String methods and CLI help are all derived.
type Enum[T ~int] struct {
	// What says what is being named, for errors ("model").
	What string
	Rows []Names
}

// Parse resolves a canonical name or alias, case-insensitively.
func (e Enum[T]) Parse(s string) (T, error) {
	name := strings.ToLower(s)
	for v, row := range e.Rows {
		if name == row.Spec {
			return T(v), nil
		}
		for _, a := range row.Aliases {
			if name == a {
				return T(v), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", e.What, s, e.Help())
}

// Spec returns v's canonical grammar name.
func (e Enum[T]) Spec(v T) string {
	if v < 0 || int(v) >= len(e.Rows) {
		return fmt.Sprintf("%s(%d)", e.What, int(v))
	}
	return e.Rows[v].Spec
}

// Label returns v's display name.
func (e Enum[T]) Label(v T) string {
	if v >= 0 && int(v) < len(e.Rows) && e.Rows[v].Label != "" {
		return e.Rows[v].Label
	}
	return e.Spec(v)
}

// Help lists the canonical names, "a|b|c", for flag usage strings.
func (e Enum[T]) Help() string {
	names := make([]string, len(e.Rows))
	for i, row := range e.Rows {
		names[i] = row.Spec
	}
	return strings.Join(names, "|")
}
