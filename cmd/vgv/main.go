// Command vgv is the postmortem analysis tool: the stand-in for the
// Vampir/GuideView GUI. It reads a trace file written by cmd/asci or
// cmd/dynprof and prints the time-line display and/or a per-function
// profile.
//
//	vgv -trace smg.vgv -timeline -width 100 -top 15
package main

import (
	"flag"
	"fmt"
	"os"

	"dynprof/internal/vgv"
	"dynprof/internal/vt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vgv:", err)
		os.Exit(1)
	}
}

func run() error {
	trace := flag.String("trace", "", "trace file to analyse (required)")
	timeline := flag.Bool("timeline", true, "render the time-line display")
	width := flag.Int("width", 100, "time-line width in columns")
	top := flag.Int("top", 20, "profile rows to print (0 = all)")
	flag.Parse()
	if *trace == "" {
		flag.Usage()
		return fmt.Errorf("a -trace file is required")
	}
	f, err := os.Open(*trace)
	if err != nil {
		return err
	}
	defer f.Close()
	col, err := vt.ReadTrace(f)
	if err != nil {
		return err
	}
	if *timeline {
		if err := vgv.RenderTimeline(col, os.Stdout, *width); err != nil {
			return err
		}
		fmt.Println()
	}
	p := vgv.Analyze(col)
	if err := p.WriteReport(os.Stdout, *top); err != nil {
		return err
	}
	if len(p.CallGraph) > 0 {
		fmt.Println()
		if err := p.WriteCallGraph(os.Stdout, *top); err != nil {
			return err
		}
	}
	if len(p.Comm) > 0 {
		fmt.Println()
		return p.WriteCommMatrix(os.Stdout, *top)
	}
	return nil
}
