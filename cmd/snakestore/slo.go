package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/obsevent"
)

// cmdSLO is `snakestore slo`: parse and validate an objective spec before
// an operator hands it to serve -slo. With -catalog, per-class entries are
// checked against the schema's class set and the full resolved objective
// table is printed (one line per tracked class); without it, only the
// spec's own syntax and ranges are validated.
func cmdSLO(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	spec := fs.String("spec", "", "objective spec, e.g. 'default=250ms@99.9;0,2=50ms@99'")
	catPath := fs.String("catalog", "", "optional catalog file to resolve per-class objectives against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return usagef("slo wants -spec, e.g. -spec 'default=250ms@99.9'")
	}
	cfg, err := obsevent.ParseSLOSpec(*spec)
	if err != nil {
		return usagef("%v", err)
	}
	printObj := func(label string, o obsevent.Objective) {
		fmt.Printf("%-12s %v @ %.6g%% (budget %.6g%%)\n", label, o.Threshold, o.Target*100, (1-o.Target)*100)
	}
	if *catPath == "" {
		if cfg.HasDefault {
			printObj("default", cfg.Default)
		}
		keys := make([]string, 0, len(cfg.PerClass))
		for k := range cfg.PerClass {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			printObj(k, cfg.PerClass[k])
		}
		fmt.Println("spec ok (no catalog given; per-class labels unchecked)")
		return nil
	}
	_, schema, _, err := loadCatalog(*catPath)
	if err != nil {
		return err
	}
	known := make(map[string]bool, schema.NumClasses())
	for _, c := range schema.Classes() {
		known[classLabel(c)] = true
	}
	for lbl := range cfg.PerClass {
		if !known[lbl] {
			return usagef("class %q is not a class of catalog %s", lbl, *catPath)
		}
	}
	tracked := 0
	for _, c := range schema.Classes() {
		lbl := classLabel(c)
		o, ok := cfg.PerClass[lbl]
		switch {
		case ok:
			printObj(lbl, o)
			tracked++
		case cfg.HasDefault:
			printObj(lbl+" (default)", cfg.Default)
			tracked++
		}
	}
	fmt.Printf("spec ok: %d of %d classes tracked\n", tracked, schema.NumClasses())
	return nil
}
