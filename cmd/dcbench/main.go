// Command dcbench regenerates the tables and figures of "How to Get More
// Value From Your File System Directory Cache" (SOSP 2015) against this
// repository's baseline and optimized directory caches.
//
// Usage:
//
//	dcbench [-scale small|paper] [-list] [-json file] [experiment ...]
//
// With no experiment arguments, every experiment runs in paper order.
// -json additionally writes the selected reports' structured data to the
// named file. Numbers kept over time come from benchmark/ (see
// benchmark/README.md), not from this tool, and the live view of a
// running System (histograms, traces, /metrics) is dcsh's and dcserve's.
// -list prints the experiment IDs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dircache/internal/bench"
)

func main() {
	scale := flag.String("scale", "paper", "experiment scale: small or paper")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "write the selected reports' structured data to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcbench [-scale small|paper] [-list] [-json file] [experiment ...]\n\n")
		fmt.Fprintf(os.Stderr, "experiments:\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Desc)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	var sc bench.Scale
	switch *scale {
	case "small":
		sc = bench.SmallScale()
	case "paper":
		sc = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "dcbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	var todo []bench.Experiment
	if flag.NArg() == 0 {
		todo = bench.Experiments()
	} else {
		for _, id := range flag.Args() {
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "dcbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	failed := 0
	var results []jsonReport
	for _, e := range todo {
		t0 := time.Now()
		rep, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		el := time.Since(t0)
		fmt.Println(rep)
		fmt.Printf("(%s took %v)\n\n", e.ID, el.Round(time.Millisecond))
		results = append(results, jsonReport{
			ID:        rep.ID,
			Title:     rep.Title,
			ElapsedMS: el.Milliseconds(),
			Data:      rep.Data,
			Notes:     rep.Notes,
		})
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, *scale, results); err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s\n", *jsonOut)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// jsonReport is the machine-readable projection of one bench.Report: the
// structured Data map the shape tests assert on, not the rendered table.
type jsonReport struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Data      map[string]float64 `json:"data"`
	Notes     []string           `json:"notes,omitempty"`
}

type jsonDoc struct {
	GeneratedAt string       `json:"generated_at"`
	Scale       string       `json:"scale"`
	Experiments []jsonReport `json:"experiments"`
}

func writeJSON(path, scale string, results []jsonReport) error {
	doc := jsonDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scale,
		Experiments: results,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
