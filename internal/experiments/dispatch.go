package experiments

import (
	"fmt"
	"sort"
)

// experiment is one entry of the registry: a name accepted by fastcc-bench
// -exp and its runner. "fig2" and "fig4" take the suite from the dispatcher.
type experiment struct {
	name string
	run  func(Config, string) error
}

// registry lists every experiment in the order "all" runs them, so "all" and
// Names cannot drift apart.
var registry = []experiment{
	{"table1", func(c Config, _ string) error { return RunTable1(c) }},
	{"table2", func(c Config, _ string) error { return RunTable2(c) }},
	{"table3", func(c Config, _ string) error { return RunTable3(c) }},
	{"fig2", RunFig2},
	{"fig3", func(c Config, _ string) error { return RunFig3(c) }},
	{"fig4", RunFig4},
	{"fig5", func(c Config, _ string) error { return RunFig5(c) }},
	{"ablate", func(c Config, _ string) error { return RunAblations(c) }},
	{"model", func(c Config, _ string) error { return RunModelAccuracy(c) }},
	{"phases", func(c Config, _ string) error { return RunPhases(c) }},
}

// Names lists the available experiments in stable order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for _, e := range registry {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return names
}

// Run dispatches one experiment by name; "all" runs everything in registry
// order.
func Run(cfg Config, name, suite string) error {
	todo := registry
	if name != "all" {
		todo = nil
		for _, e := range registry {
			if e.name == name {
				todo = []experiment{e}
			}
		}
		if todo == nil {
			return fmt.Errorf("experiments: unknown experiment %q (have %v and \"all\")", name, Names())
		}
	}
	for _, e := range todo {
		if name == "all" {
			fmt.Fprintf(cfg.writer(), "\n===== %s =====\n\n", e.name)
		}
		if err := e.run(cfg, suite); err != nil {
			return err
		}
	}
	return nil
}
