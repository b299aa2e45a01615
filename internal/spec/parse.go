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

// kind tags the value type a key wants.
type kind byte

const (
	kindString kind = 's'
	kindInt    kind = 'i'
	kindUint   kind = 'u'
	kindFloat  kind = 'f'
	kindBool   kind = 'b'
	kindArray  kind = 'a'
)

func (k kind) String() string {
	switch k {
	case kindString:
		return "a quoted string"
	case kindInt:
		return "an integer"
	case kindUint:
		return "a non-negative integer"
	case kindFloat:
		return "a number"
	case kindBool:
		return "true or false"
	default:
		return "an integer array like [1, 2, 4]"
	}
}

// sections is the complete key vocabulary: section → key → value kind.
// Parsing rejects anything outside it with the line number, which is
// the unknown-key guarantee the boundary tests pin.
var sections = map[string]map[string]kind{
	"run": {
		"command": kindString, "scale": kindString, "seed": kindUint,
		"workers": kindInt, "jobs": kindInt, "shard": kindString, "cache_dir": kindString,
	},
	"figures": {
		"all": kindBool, "fig": kindInt, "table": kindInt, "summary": kindBool,
		"exp": kindString, "format": kindString,
		"procs": kindArray, "sizes": kindArray, "edge_factors": kindArray,
	},
	"profile": {
		"kernel": kindString, "machine": kindString, "n": kindInt, "procs": kindInt,
		"layout": kindString, "sample": kindFloat, "attr": kindString, "timeline": kindFloat,
	},
	"workload": {
		"gen": kindString, "n": kindInt, "m": kindInt, "rows": kindInt, "cols": kindInt,
		"depth": kindInt, "layout": kindString, "machine": kindString, "procs": kindInt,
		"sched": kindString, "sublists": kindInt, "nodes_per_walk": kindInt,
		"input": kindString, "verify": kindBool,
	},
	"output": {
		"report": kindString, "trace": kindString, "attr": kindString, "manifest": kindString,
	},
}

// entry is one parsed key = value assignment.
type entry struct {
	line    int
	section string
	key     string
	raw     string // value text, comment-stripped and trimmed
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
		if e.section == "run" && e.key == "command" {
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
// key vocabulary and rejecting duplicates. It also returns the set of
// "section.key" names assigned.
func scan(data []byte) ([]entry, map[string]bool, error) {
	var (
		entries []entry
		section string
		seen    = make(map[string]bool)
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
				return nil, nil, fmt.Errorf("spec: line %d: unterminated section header %q", ln, text)
			}
			name := strings.TrimSpace(text[1 : len(text)-1])
			if _, ok := sections[name]; !ok {
				return nil, nil, fmt.Errorf("spec: line %d: unknown section [%s]", ln, name)
			}
			section = name
			continue
		}
		key, raw, ok := strings.Cut(text, "=")
		if !ok {
			return nil, nil, fmt.Errorf("spec: line %d: expected key = value, got %q", ln, text)
		}
		key = strings.TrimSpace(key)
		raw = strings.TrimSpace(raw)
		if !validKeyName(key) {
			return nil, nil, fmt.Errorf("spec: line %d: invalid key name %q", ln, key)
		}
		if section == "" {
			return nil, nil, fmt.Errorf("spec: line %d: key %q outside any section", ln, key)
		}
		if _, ok := sections[section][key]; !ok {
			return nil, nil, fmt.Errorf("spec: line %d: [%s] has no key %q", ln, section, key)
		}
		if full := section + "." + key; seen[full] {
			return nil, nil, fmt.Errorf("spec: line %d: duplicate key %q in [%s]", ln, key, section)
		} else {
			seen[full] = true
		}
		if raw == "" {
			return nil, nil, fmt.Errorf("spec: line %d: key %q has no value", ln, key)
		}
		entries = append(entries, entry{line: ln, section: section, key: key, raw: raw})
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
func mismatch(e entry, want kind) error {
	return fmt.Errorf("spec: line %d: [%s] %s wants %s, got %s", e.line, e.section, e.key, want, e.raw)
}

func stringValue(e entry) (string, error) {
	raw := e.raw
	if len(raw) < 2 || raw[0] != '"' || raw[len(raw)-1] != '"' {
		return "", mismatch(e, kindString)
	}
	v := raw[1 : len(raw)-1]
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return "", fmt.Errorf("spec: line %d: unsupported character %q in string value of %s", e.line, c, e.key)
		}
	}
	return v, nil
}

func intValue(e entry) (int, error) {
	v, err := strconv.ParseInt(e.raw, 10, 64)
	if err != nil {
		return 0, mismatch(e, kindInt)
	}
	return int(v), nil
}

func uintValue(e entry) (uint64, error) {
	v, err := strconv.ParseUint(e.raw, 10, 64)
	if err != nil {
		return 0, mismatch(e, kindUint)
	}
	return v, nil
}

func floatValue(e entry) (float64, error) {
	v, err := strconv.ParseFloat(e.raw, 64)
	if err != nil || v != v || v > 1e308 || v < -1e308 {
		return 0, mismatch(e, kindFloat)
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
	return false, mismatch(e, kindBool)
}

func arrayValue(e entry) ([]int, error) {
	raw := e.raw
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return nil, mismatch(e, kindArray)
	}
	inner := strings.TrimSpace(raw[1 : len(raw)-1])
	if inner == "" {
		return nil, nil
	}
	parts := strings.Split(inner, ",")
	if len(parts) > maxArrayLen {
		return nil, fmt.Errorf("spec: line %d: array for %s has %d elements; the cap is %d", e.line, e.key, len(parts), maxArrayLen)
	}
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, mismatch(e, kindArray)
		}
		vals = append(vals, int(v))
	}
	return vals, nil
}

// assign decodes one entry into its Spec field.
func (s *Spec) assign(e entry) error {
	var (
		sv  string
		iv  int
		uv  uint64
		fv  float64
		bv  bool
		av  []int
		err error
	)
	switch sections[e.section][e.key] {
	case kindString:
		sv, err = stringValue(e)
	case kindInt:
		iv, err = intValue(e)
	case kindUint:
		uv, err = uintValue(e)
	case kindFloat:
		fv, err = floatValue(e)
	case kindBool:
		bv, err = boolValue(e)
	case kindArray:
		av, err = arrayValue(e)
	}
	if err != nil {
		return err
	}
	switch e.section + "." + e.key {
	case "run.command":
		s.Run.Command = sv
	case "run.scale":
		s.Run.Scale = sv
	case "run.seed":
		s.Run.Seed = uv
	case "run.workers":
		s.Run.Workers = iv
	case "run.jobs":
		s.Run.Jobs = iv
	case "run.shard":
		s.Run.Shard = sv
	case "run.cache_dir":
		s.Run.CacheDir = sv
	case "figures.all":
		s.Figures.All = bv
	case "figures.fig":
		s.Figures.Fig = iv
	case "figures.table":
		s.Figures.Table = iv
	case "figures.summary":
		s.Figures.Summary = bv
	case "figures.exp":
		s.Figures.Exp = sv
	case "figures.format":
		s.Figures.Format = sv
	case "figures.procs":
		s.Figures.Procs = av
	case "figures.sizes":
		s.Figures.Sizes = av
	case "figures.edge_factors":
		s.Figures.EdgeFactors = av
	case "profile.kernel":
		s.Profile.Kernel = sv
	case "profile.machine":
		s.Profile.Machine = sv
	case "profile.n":
		s.Profile.N = iv
	case "profile.procs":
		s.Profile.Procs = iv
	case "profile.layout":
		s.Profile.Layout = sv
	case "profile.sample":
		s.Profile.Sample = fv
	case "profile.attr":
		s.Profile.Attr = sv
	case "profile.timeline":
		s.Profile.Timeline = fv
	case "workload.gen":
		s.Workload.Gen = sv
	case "workload.n":
		s.Workload.N = iv
	case "workload.m":
		s.Workload.M = iv
	case "workload.rows":
		s.Workload.Rows = iv
	case "workload.cols":
		s.Workload.Cols = iv
	case "workload.depth":
		s.Workload.Depth = iv
	case "workload.layout":
		s.Workload.Layout = sv
	case "workload.machine":
		s.Workload.Machine = sv
	case "workload.procs":
		s.Workload.Procs = iv
	case "workload.sched":
		s.Workload.Sched = sv
	case "workload.sublists":
		s.Workload.Sublists = iv
	case "workload.nodes_per_walk":
		s.Workload.NodesPerWalk = iv
	case "workload.input":
		s.Workload.Input = sv
	case "workload.verify":
		s.Workload.Verify = bv
	case "output.report":
		s.Output.Report = sv
	case "output.trace":
		s.Output.Trace = sv
	case "output.attr":
		s.Output.Attr = sv
	case "output.manifest":
		s.Output.Manifest = sv
	}
	return nil
}
