// Command privehd-experiments regenerates every table and figure of the
// Prive-HD evaluation and writes the results as a markdown report (see
// README "Experiments and benchmarks").
//
// Usage:
//
//	privehd-experiments [-smoke] [-only fig5a,fig5b] [-o results.md]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"privehd"
)

func main() {
	smoke := flag.Bool("smoke", false, "run at smoke scale (small datasets, D≤2000)")
	only := flag.String("only", "", "comma-separated table IDs to print (default: all)")
	out := flag.String("o", "", "write markdown to this file (default: stdout, plain text)")
	flag.Parse()

	ctx := privehd.DefaultExperimentContext()
	if *smoke {
		ctx = privehd.SmokeExperimentContext()
	}

	start := time.Now()
	suite, err := privehd.RunExperiments(ctx)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	if *out == "" {
		for _, t := range suite.Tables {
			if len(wanted) > 0 && !wanted[t.ID] {
				continue
			}
			fmt.Println(t.String())
		}
		if len(wanted) == 0 {
			for _, art := range suite.Art {
				fmt.Println(art)
			}
		}
		fmt.Printf("regenerated %d tables in %v\n", len(suite.Tables), elapsed.Round(time.Second))
		return
	}

	var b strings.Builder
	b.WriteString("# Prive-HD — Experiment Results\n\n")
	fmt.Fprintf(&b, "Generated by `go run ./cmd/privehd-experiments` (scale: %s, MaxDim %d) in %v.\n\n",
		scaleName(*smoke), ctx.MaxDim, elapsed.Round(time.Second))
	b.WriteString("Datasets and hardware are simulated stand-ins; compare *shapes* " +
		"and ratios with the paper, not absolute values. Paper expectations are quoted in each " +
		"table's note.\n\n")
	for _, t := range suite.Tables {
		if len(wanted) > 0 && !wanted[t.ID] {
			continue
		}
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	if len(wanted) == 0 && len(suite.Art) > 0 {
		b.WriteString("## Reconstruction renderings (Fig. 2 / Fig. 6)\n\n")
		for _, art := range suite.Art {
			b.WriteString("```\n")
			b.WriteString(art)
			if !strings.HasSuffix(art, "\n") {
				b.WriteString("\n")
			}
			b.WriteString("```\n\n")
		}
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d tables) in %v\n", *out, len(suite.Tables), elapsed.Round(time.Second))
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "privehd-experiments:", err)
	os.Exit(1)
}
