package bench

import (
	"fmt"
	"io"
)

// Experiment names accepted by Run.
var Experiments = []string{
	"fig4", "rewind-memcached", "mem-memcached",
	"fig5", "scaling-nginx", "rewind-nginx", "mem-nginx",
	"openssl", "rewind-openssl",
	"switchcost", "ablations", "recovery", "cluster", "telemetry",
}

// Run executes one named experiment at the given scale and prints its
// table(s) to w. An experiment that states a claim (recovery, cluster,
// telemetry) prints its table first and then returns an error when its
// own run is on the wrong side of the line.
func Run(w io.Writer, name string, sc Scale) error {
	var tables []*Table
	var claim func() error
	var err error
	switch name {
	case "fig4":
		var t *Table
		t, err = Fig4MemcachedThroughput(sc, nil)
		tables = append(tables, t)
	case "rewind-memcached":
		var t *Table
		t, err = MemcachedRewindLatency(sc)
		tables = append(tables, t)
	case "mem-memcached":
		var t *Table
		t, err = MemcachedMemoryOverhead(sc)
		tables = append(tables, t)
	case "fig5":
		var t *Table
		t, err = Fig5NginxThroughput(sc, nil)
		tables = append(tables, t)
	case "scaling-nginx":
		var t *Table
		t, err = NginxWorkerScaling(sc)
		tables = append(tables, t)
	case "rewind-nginx":
		var t *Table
		t, err = NginxRewindLatency(sc)
		tables = append(tables, t)
	case "mem-nginx":
		var t *Table
		t, err = NginxMemoryOverhead(sc)
		tables = append(tables, t)
	case "openssl":
		var t *Table
		t, err = OpenSSLSpeed(sc, nil)
		tables = append(tables, t)
	case "rewind-openssl":
		var t *Table
		t, err = X509Rewind(sc)
		tables = append(tables, t)
	case "switchcost":
		var t *Table
		t, err = DomainSwitchBreakdown(sc)
		tables = append(tables, t)
	case "ablations":
		for _, fn := range []func(Scale) (*Table, error){AblationStackReuse, AblationHeapMerge, AblationScrub} {
			t, ferr := fn(sc)
			if ferr != nil {
				return ferr
			}
			tables = append(tables, t)
		}
	case "recovery":
		rep, t, rerr := RunRecovery(sc)
		tables, claim, err = append(tables, t), rep.Check, rerr
	case "cluster":
		rep, t, rerr := RunCluster(sc)
		tables, claim, err = append(tables, t), rep.Check, rerr
	case "telemetry":
		rep, t, rerr := RunTelemetry(sc)
		tables, claim, err = append(tables, t), rep.Check, rerr
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", name, Experiments)
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	if claim != nil {
		return claim()
	}
	return nil
}
