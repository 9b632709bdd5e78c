// Command swc is the Sidewinder condition compiler: it turns a JSON
// pipeline spec into the intermediate language the sensor hub executes
// (paper §3.3), validating it against the platform catalog and reporting
// which microcontroller the condition fits on (paper §3.8 "Sizing").
//
// Usage:
//
//	swc condition.json              compile a spec to IR (stdout)
//	swc -check program.ir           parse+bind an existing IR program
//	swc -report condition.json      also print per-device feasibility
//	swc -catalog                    list the platform algorithm catalog
//	swc -O condition.json           optimize through the DAG compile pass
//	swc -dot condition.json         print the DAG as Graphviz dot (stdout)
//	swc -apps -dot                  one shared DAG across all six apps
//
// -O runs the spec through the DAG compile pass (common-subexpression
// elimination, constant folding, threshold fusion) before emitting IR and
// prints the pass statistics to stderr. -dot emits Graphviz instead of IR;
// render with: swc -dot condition.json | dot -Tsvg > condition.svg.
//
// Exit status is non-zero if the condition is invalid or fits no device.
package main

import (
	"flag"
	"fmt"
	"os"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/ir"
	"sidewinder/internal/spec"
)

func main() {
	check := flag.Bool("check", false, "treat the input as IR text and validate it")
	report := flag.Bool("report", false, "print a per-device feasibility report")
	catalog := flag.Bool("catalog", false, "list the platform algorithm catalog and exit")
	graph := flag.Bool("graph", false, "also print the conceptual pipeline graph (paper Fig. 2b) to stderr")
	showApps := flag.Bool("apps", false, "print the six reference applications' wake-up conditions (paper Fig. 3) and exit")
	optimize := flag.Bool("O", false, "run the DAG compile pass (CSE, folding, threshold fusion) before emitting IR; prints pass stats to stderr")
	dot := flag.Bool("dot", false, "print the compiled DAG as Graphviz dot to stdout instead of IR (with -apps: one shared DAG across all apps)")
	flag.Parse()

	if err := run(*check, *report, *catalog, *graph, *showApps, *optimize, *dot, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "swc:", err)
		os.Exit(1)
	}
}

func run(check, report, listCatalog, graph, showApps, optimize, dot bool, args []string) error {
	cat := core.DefaultCatalog()
	if listCatalog {
		printCatalog(cat)
		return nil
	}
	if showApps {
		if dot {
			return printAppsDot(cat)
		}
		return printApps(cat)
	}
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one input file (use -h for usage)")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}

	var plan *core.Plan
	emitIR := !check
	if check {
		if plan, err = ir.ParseAndBind(string(data), cat); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "OK: %d nodes, channels %v\n", len(plan.Nodes), plan.Channels)
	} else {
		pipeline, err := spec.Parse(data)
		if err != nil {
			return err
		}
		if plan, err = pipeline.Validate(cat); err != nil {
			return err
		}
	}

	if dot {
		// The dot view always goes through the compile pass: the point of
		// the drawing is the deduplicated DAG with shared nodes shaded.
		sp, err := ir.CompilePlans(cat, ir.CompileOptions{}, plan)
		if err != nil {
			return err
		}
		fmt.Print(sp.Dot())
		fmt.Fprintf(os.Stderr, "compile: %s\n", sp.Stats.String())
		return nil
	}
	if optimize {
		compiled, stats, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "compile: %s\n", stats.String())
		plan = compiled
	}
	if emitIR {
		fmt.Print(ir.CompileToText(plan))
	}

	dev, err := hub.SelectDevice(hub.Devices(), plan)
	if err != nil {
		return err
	}
	_, _, mem := ir.Demand(ir.NoOpt(), plan)
	fmt.Fprintf(os.Stderr, "placement: %s (%.2f%% cycle budget, %d B state)\n",
		dev.Name, dev.Utilization(plan)/dev.MaxUtilization*100, mem)

	if report {
		printReport(plan)
	}
	if graph {
		fmt.Fprint(os.Stderr, ir.Graph(plan))
	}
	return nil
}

// printAppsDot compiles all six reference applications into one shared
// execution DAG and prints it as Graphviz dot — the cross-app
// common-subgraph picture the capacity scheduler bills from. Render with:
//
//	swc -apps -dot | dot -Tsvg > apps.svg
func printAppsDot(cat *core.Catalog) error {
	var plans []*core.Plan
	for _, app := range apps.All() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		plan.Name = app.Name
		plans = append(plans, plan)
	}
	sp, err := ir.CompilePlans(cat, ir.CompileOptions{}, plans...)
	if err != nil {
		return err
	}
	fmt.Print(sp.Dot())
	fmt.Fprintf(os.Stderr, "compile: %s\n", sp.Stats.String())
	return nil
}

// printApps renders every reference application's wake-up condition as
// its conceptual graph plus IR — the paper's Fig. 3, regenerated from the
// living code.
func printApps(cat *core.Catalog) error {
	for _, app := range apps.All() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		dev, err := hub.SelectDevice(hub.Devices(), plan)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		fmt.Printf("=== %s (detects %q, runs on the %s) ===\n", app.Name, app.Label, dev.Name)
		fmt.Print(ir.Graph(plan))
		fmt.Println()
		fmt.Print(ir.CompileToText(plan))
		fmt.Println()
	}
	return nil
}

func printReport(plan *core.Plan) {
	f, i, _ := ir.Demand(ir.NoOpt(), plan)
	fmt.Fprintf(os.Stderr, "demand: %.0f float ops/s, %.0f int ops/s\n", f, i)
	for _, d := range hub.Devices() {
		if err := d.CheckFeasible(plan); err != nil {
			fmt.Fprintf(os.Stderr, "  %-8s INFEASIBLE: %v\n", d.Name, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-8s ok: %.2f%% of cycle budget, %.1f mW\n",
			d.Name, d.Utilization(plan)/d.MaxUtilization*100, d.ActivePowerMW)
	}
}

func printCatalog(cat *core.Catalog) {
	fmt.Println("Platform algorithm catalog (paper §3.6):")
	for _, kind := range cat.Kinds() {
		m, err := cat.Get(kind)
		if err != nil {
			continue
		}
		arity := "1 input"
		if m.IsAggregator() {
			if m.MaxInputs < 0 {
				arity = fmt.Sprintf(">=%d inputs", m.MinInputs)
			} else {
				arity = fmt.Sprintf("%d inputs", m.MaxInputs)
			}
		}
		fmt.Printf("  %-18s %s -> %s, %s\n      %s\n", kind, m.In, m.Out, arity, m.Summary)
		for _, p := range m.Params {
			req := "optional"
			if p.Required {
				req = "required"
			}
			if p.Type == core.EnumParam {
				fmt.Printf("      param %s (%s, %s): one of %v\n", p.Name, p.Type, req, p.Enum)
			} else {
				fmt.Printf("      param %s (%s, %s)\n", p.Name, p.Type, req)
			}
		}
	}
}
