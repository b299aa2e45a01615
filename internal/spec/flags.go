package spec

import "flag"

// Flags holds a command's spec flags: one per key the command reads
// that has a flag name in the field table.
type Flags struct {
	command string
	fs      *flag.FlagSet
}

// BindFlags declares command's spec flags on fs, each defaulting to its
// key's value in Default(command).
func BindFlags(fs *flag.FlagSet, command string) *Flags {
	bind(fs, command, Default(command))
	return &Flags{command: command, fs: fs}
}

// Apply sets in s every key whose flag the parsed command line gave, so
// explicit flags override a spec file. It marks no key as set by text.
func (fl *Flags) Apply(s *Spec) {
	dst := flag.NewFlagSet(fl.command, flag.ContinueOnError)
	bind(dst, fl.command, s)
	fl.fs.Visit(func(x *flag.Flag) {
		if dst.Lookup(x.Name) != nil {
			// x's value already parsed as this type, so its text re-parses.
			_ = dst.Set(x.Name, x.Value.String())
		}
	})
}

// bind declares command's spec flags on fs, stored in s's fields with
// their current values as defaults.
func bind(fs *flag.FlagSet, command string, s *Spec) {
	on := bitOf(command)
	for i := range fields {
		f := &fields[i]
		if f.flag == "" || f.cmds&on == 0 {
			continue
		}
		switch p := f.ptr(s).(type) {
		case *string:
			fs.StringVar(p, f.flag, *p, f.usage)
		case *int:
			fs.IntVar(p, f.flag, *p, f.usage)
		case *uint64:
			fs.Uint64Var(p, f.flag, *p, f.usage)
		case *float64:
			fs.Float64Var(p, f.flag, *p, f.usage)
		case *bool:
			fs.BoolVar(p, f.flag, *p, f.usage)
		}
	}
}
