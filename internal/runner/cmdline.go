package runner

import (
	"flag"
	"fmt"

	"pargraph/internal/spec"
)

// CommandLine is an experiment command's flags: -spec, one flag per
// spec key the command reads (spec.BindFlags), and the Options toggles
// every command shares. A command declares its own extra flags on the
// same set before Parse.
type CommandLine struct {
	command  string
	fs       *flag.FlagSet
	specPath *string
	flags    *spec.Flags
	opts     Options
}

// NewCommandLine declares command's flags on fs.
func NewCommandLine(fs *flag.FlagSet, command string) *CommandLine {
	c := &CommandLine{command: command, fs: fs, flags: spec.BindFlags(fs, command)}
	c.specPath = fs.String("spec", "", "load the experiment from this spec file (TOML); explicit flags override its fields")
	fs.BoolVar(&c.opts.NoResultCache, "no-result-cache", false, "with a cache attached, keep the input cache but disable whole-result memoization")
	fs.BoolVar(&c.opts.CacheStats, "cache-stats", false, "print input- and result-cache hit/miss/byte counters to stderr after the run")
	fs.Int64Var(&c.opts.CacheMaxBytes, "cache-max-bytes", 0, "bound the cache directory's size; least-recently-used entries are pruned on overflow (0 = unbounded)")
	return c
}

// Parse parses args and returns the spec they describe, not yet
// validated, and the Options they set. The spec is the -spec file, or
// the command's defaults without one, with every flag args give on top.
// A spec file written for another command is an error.
func (c *CommandLine) Parse(args []string) (*spec.Spec, Options, error) {
	if err := c.fs.Parse(args); err != nil {
		return nil, Options{}, err
	}
	sp := spec.Default(c.command)
	if path := *c.specPath; path != "" {
		var err error
		if sp, err = spec.Load(path); err != nil {
			return nil, Options{}, err
		}
		if sp.Run.Command != c.command {
			return nil, Options{}, fmt.Errorf("%s is a %q spec; run it with cmd/%s", path, sp.Run.Command, sp.Run.Command)
		}
	}
	c.flags.Apply(sp)
	return sp, c.opts, nil
}
