package spec

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The TOML subset: `[section]` headers, `key = value` lines, blank
// lines, and # comments. Values are double-quoted strings (printable
// ASCII, no quotes or backslashes, so every value renders back
// verbatim), decimal integers, floats, booleans, and single-line
// integer arrays like [1, 2, 4]. No nesting, no multi-line values, no
// escapes — a spec is a flat description, and the restriction is what
// makes the canonical form a parse→render→parse fixpoint.

// maxSpecBytes caps the accepted file size; specs are hand-written and
// small, and the cap bounds allocation when fuzzing feeds garbage.
const maxSpecBytes = 1 << 20

// maxArrayLen caps array values at parse time, before validation sees
// them.
const maxArrayLen = 4096

// entry is one parsed key = value assignment.
type entry struct {
	line  int
	field int    // index in fields
	raw   string // value text, comment-stripped and trimmed
}

// Load reads and parses (but does not validate) a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse parses spec text and layers it over the defaults of the
// command it declares ([run] command, "figures" when absent). The
// result is not yet validated: call Validate before running it.
func Parse(data []byte) (*Spec, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("spec: file larger than %d bytes", maxSpecBytes)
	}
	entries, set, err := scan(data)
	if err != nil {
		return nil, err
	}
	command := CmdFigures
	for _, e := range entries {
		if f := &fields[e.field]; f.section == "run" && f.key == "command" {
			v, err := stringValue(e)
			if err != nil {
				return nil, err
			}
			command = v
		}
	}
	s := Default(command)
	s.set = set
	for _, e := range entries {
		if err := s.assign(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// scan tokenizes the text into assignments, enforcing the section and
// key vocabulary (fields) and rejecting duplicates. It also returns the
// set of keys assigned, one bit per fields index.
func scan(data []byte) ([]entry, uint64, error) {
	var (
		entries []entry
		section string
		seen    uint64
	)
	rest := string(data)
	for ln := 1; rest != ""; ln++ {
		line, tail, _ := strings.Cut(rest, "\n")
		rest = tail
		text := strings.TrimSpace(stripComment(line))
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "[") {
			if !strings.HasSuffix(text, "]") {
				return nil, 0, fmt.Errorf("spec: line %d: unterminated section header %q", ln, text)
			}
			name := strings.TrimSpace(text[1 : len(text)-1])
			if !knownSection(name) {
				return nil, 0, fmt.Errorf("spec: line %d: unknown section [%s]", ln, name)
			}
			section = name
			continue
		}
		key, raw, ok := strings.Cut(text, "=")
		if !ok {
			return nil, 0, fmt.Errorf("spec: line %d: expected key = value, got %q", ln, text)
		}
		key = strings.TrimSpace(key)
		raw = strings.TrimSpace(raw)
		if !validKeyName(key) {
			return nil, 0, fmt.Errorf("spec: line %d: invalid key name %q", ln, key)
		}
		if section == "" {
			return nil, 0, fmt.Errorf("spec: line %d: key %q outside any section", ln, key)
		}
		i := lookup(section, key)
		if i < 0 {
			return nil, 0, fmt.Errorf("spec: line %d: [%s] has no key %q", ln, section, key)
		}
		if seen&(1<<i) != 0 {
			return nil, 0, fmt.Errorf("spec: line %d: duplicate key %q in [%s]", ln, key, section)
		}
		seen |= 1 << i
		if raw == "" {
			return nil, 0, fmt.Errorf("spec: line %d: key %q has no value", ln, key)
		}
		entries = append(entries, entry{line: ln, field: i, raw: raw})
	}
	return entries, seen, nil
}

// stripComment removes a # comment, honoring quoted strings (which
// cannot contain escapes, so a bare toggle is exact).
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func validKeyName(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= 'a' && c <= 'z' || c == '_' || i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return true
}

// mismatch builds the value-type error every wrong-kind case reports.
func mismatch(e entry, want string) error {
	f := &fields[e.field]
	return fmt.Errorf("spec: line %d: [%s] %s wants %s, got %s", e.line, f.section, f.key, want, e.raw)
}

func stringValue(e entry) (string, error) {
	raw := e.raw
	if len(raw) < 2 || raw[0] != '"' || raw[len(raw)-1] != '"' {
		return "", mismatch(e, "a quoted string")
	}
	v := raw[1 : len(raw)-1]
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return "", fmt.Errorf("spec: line %d: unsupported character %q in string value of %s", e.line, c, fields[e.field].key)
		}
	}
	return v, nil
}

func intValue(e entry) (int, error) {
	v, err := strconv.ParseInt(e.raw, 10, 64)
	if err != nil {
		return 0, mismatch(e, "an integer")
	}
	return int(v), nil
}

func uintValue(e entry) (uint64, error) {
	v, err := strconv.ParseUint(e.raw, 10, 64)
	if err != nil {
		return 0, mismatch(e, "a non-negative integer")
	}
	return v, nil
}

func floatValue(e entry) (float64, error) {
	v, err := strconv.ParseFloat(e.raw, 64)
	if err != nil || v != v || v > 1e308 || v < -1e308 {
		return 0, mismatch(e, "a number")
	}
	return v, nil
}

func boolValue(e entry) (bool, error) {
	switch e.raw {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, mismatch(e, "true or false")
}

func arrayValue(e entry) ([]int, error) {
	raw := e.raw
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return nil, mismatch(e, "an integer array like [1, 2, 4]")
	}
	inner := strings.TrimSpace(raw[1 : len(raw)-1])
	if inner == "" {
		return nil, nil
	}
	parts := strings.Split(inner, ",")
	if len(parts) > maxArrayLen {
		return nil, fmt.Errorf("spec: line %d: array for %s has %d elements; the cap is %d", e.line, fields[e.field].key, len(parts), maxArrayLen)
	}
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, mismatch(e, "an integer array like [1, 2, 4]")
		}
		vals = append(vals, int(v))
	}
	return vals, nil
}

// assign decodes one entry into its Spec field; the field's type is
// the value kind the entry must hold.
func (s *Spec) assign(e entry) error {
	var err error
	switch p := fields[e.field].ptr(s).(type) {
	case *string:
		*p, err = stringValue(e)
	case *int:
		*p, err = intValue(e)
	case *uint64:
		*p, err = uintValue(e)
	case *float64:
		*p, err = floatValue(e)
	case *bool:
		*p, err = boolValue(e)
	case *[]int:
		*p, err = arrayValue(e)
	}
	return err
}
