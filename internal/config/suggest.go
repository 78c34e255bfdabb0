package config

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// unknownName builds the error for a config document referencing a name
// that doesn't exist: it names the file, the offending key (optional),
// the kind of name (noun — "service", "machine", "field"), the bad
// value, and — when one is plausibly a typo away — the closest valid
// name.
func unknownName(file, key, noun, got string, valid []string) error {
	at := file
	if key != "" {
		at = file + ": " + key
	}
	if s := closest(got, valid); s != "" {
		return fmt.Errorf("config: %s: unknown %s %q (did you mean %q?)", at, noun, got, s)
	}
	sorted := append([]string(nil), valid...)
	sort.Strings(sorted)
	return fmt.Errorf("config: %s: unknown %s %q (declared: %s)",
		at, noun, got, strings.Join(sorted, ", "))
}

// unknownFieldOf extracts the field name from encoding/json's
// DisallowUnknownFields error ('json: unknown field "X"'). The message
// is the only channel the decoder offers for this.
func unknownFieldOf(err error) (string, bool) {
	msg := err.Error()
	const marker = `unknown field "`
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	j := strings.LastIndex(rest, `"`)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// jsonFieldNames collects every JSON field name reachable from v's type,
// recursing through structs, pointers, slices, arrays, and map values,
// so a typo'd key nested anywhere in a document gets a suggestion drawn
// from the whole schema. Names are sorted and unique: several struct
// types may declare the same key ("name", "latency_ms").
func jsonFieldNames(v any) []string {
	seen := make(map[reflect.Type]bool)
	names := make(map[string]bool)
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(t.Elem())
		case reflect.Struct:
			if seen[t] {
				return
			}
			seen[t] = true
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				if !f.IsExported() {
					continue
				}
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				switch name {
				case "-":
					continue
				case "":
					name = f.Name
				}
				names[name] = true
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(v))
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// closest returns the valid name nearest to got by edit distance, or ""
// when nothing is close enough to be a likely typo (distance > half the
// name's length).
func closest(got string, valid []string) string {
	best, bestDist := "", int(^uint(0)>>1)
	for _, v := range valid {
		d := editDistance(strings.ToLower(got), strings.ToLower(v))
		if d < bestDist || (d == bestDist && v < best) {
			best, bestDist = v, d
		}
	}
	limit := len(got) / 2
	if limit < 1 {
		limit = 1
	}
	if best == "" || bestDist > limit {
		return ""
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
