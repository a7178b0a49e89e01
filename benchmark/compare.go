package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return &doc, nil
}

// A difference is how far metric moved from document a to document b, as
// the share of a's value that it got worse by (negative: better); for an
// absolute-bounded metric, the plain difference.
type difference struct {
	workload string
	metric   metricSpec
	a, b     float64
	worse    float64
}

func (d difference) beyond() bool { return math.Abs(d.worse) > d.metric.Bound }

// diffDocuments pairs every end-to-end metric the two documents share.
func diffDocuments(a, b *document) []difference {
	var out []difference
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, m := range endToEnd {
				va, okA := ra.Metrics[m.Name]
				vb, okB := rb.Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				worse := vb - va
				if m.Better == "higher" {
					worse = -worse
				}
				if !m.abs {
					worse /= va
				}
				out = append(out, difference{ra.Workload, m, va, vb, worse})
			}
		}
	}
	return out
}

// compareFiles prints every shared metric's movement and exits non-zero,
// naming workload and metric, when one moved by more than its bound in
// either direction: two result sets of one commit must agree, and one that
// reads much better is as suspect as one that reads worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	diffs := diffDocuments(a, b)
	if len(diffs) == 0 {
		fmt.Fprintln(stderr, "benchmark: the documents share no end-to-end metric")
		return 2
	}
	code := 0
	for _, d := range diffs {
		moved, bound := fmt.Sprintf("%+.2f%%", d.worse*100), fmt.Sprintf("%g%%", d.metric.Bound*100)
		if d.metric.abs {
			moved, bound = fmt.Sprintf("%+.3g", d.worse), fmt.Sprintf("%g", d.metric.Bound)
		}
		verdict := "ok"
		if d.beyond() {
			verdict, code = "BEYOND BOUND, better", 1
			if d.worse > 0 {
				verdict = "BEYOND BOUND, worse"
			}
		}
		fmt.Fprintf(stdout, "%-10s %-21s %14.6g -> %-14.6g worse by %-9s (bound %s) %s\n",
			d.workload, d.metric.Name, d.a, d.b, moved, bound, verdict)
	}
	return code
}
