package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"amoeba/internal/amnet"
	"amoeba/internal/vdisk"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// every untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"lat_p999_us", "us"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by every traced
// run (--trace 1). naReason says why a metric does not apply to a
// workload; such a metric is reported as 0 and the reason printed.
var perLayer = []metricSpec{
	{"proc.cpu_us_per_op", "us"},
	{"amoebad.cpu_us_per_op", "us"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_per_kop", "count"},
	{"amnet.frames_per_op", "count"},
	{"amnet.overrun", "count"},
	{"amnet.tcp_send_mean_us", "us"},
	{"amnet.tcp_bytes_per_op", "B"},
	{"rpc.server_reqs_per_op", "count"},
	{"rpc.queue_wait_mean_us", "us"},
	{"rpc.shed", "count"},
	{"svc.dir.handle_mean_us", "us"},
	{"svc.bank.handle_mean_us", "us"},
	{"svc.file.handle_mean_us", "us"},
	{"svc.block.handle_mean_us", "us"},
	{"wal.sync_mean_us", "us"},
	{"wal.records_per_commit", "count"},
	{"vdisk.writes_per_op", "count"},
	{"vdisk.syncs_per_op", "count"},
	{"repl.ship_lag_max", "count"},
	{"repl.elect_ms", "ms"},
	{"rpc.reroute_ms", "ms"},
	{"unavail_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"acked_lost", "count"},
	{"rpc.retry_found_own_entry", "count"},
	{"trace.client_self_p50_us", "us"},
	{"trace.queue_p99_us", "us"},
	{"trace.handle_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.joined_pct", "%"},
	{"trace.nested_joined_pct", "%"},
}

var naReason = map[string]string{
	"amoebad.cpu_us_per_op":     "no daemon: the servers run inside the benchmark process (see proc.cpu_us_per_op)",
	"amnet.overrun":             "the TCP transport has no receive-queue overrun counter",
	"amnet.tcp_send_mean_us":    "SimNet workload: no TCP NIC",
	"amnet.tcp_bytes_per_op":    "SimNet workload: no TCP NIC",
	"svc.dir.handle_mean_us":    "the workload sends the directory server nothing",
	"svc.bank.handle_mean_us":   "the workload sends the bank server nothing",
	"svc.file.handle_mean_us":   "the workload sends the file server nothing",
	"svc.block.handle_mean_us":  "the workload sends the block server nothing",
	"wal.sync_mean_us":          "amoebad's services are volatile: no write-ahead log",
	"wal.records_per_commit":    "amoebad's services are volatile: no write-ahead log",
	"vdisk.writes_per_op":       "amoebad's services are volatile: no write-ahead log disk",
	"vdisk.syncs_per_op":        "amoebad's services are volatile: no write-ahead log disk",
	"repl.ship_lag_max":         "no replication group in this workload",
	"repl.elect_ms":             "no primary is killed in this workload",
	"rpc.reroute_ms":            "no primary is killed in this workload",
	"unavail_ms":                "no primary is killed in this workload",
	"loadgen.late_max_ms":       "closed loop: a request is sent when the previous one returns, so it is never late",
	"acked_lost":                "no primary is killed in this workload; replies are checked op by op instead",
	"rpc.retry_found_own_entry": "no primary is killed in this workload, so no reply is lost to a crash",
	"trace.nested_joined_pct":   "no request of this workload makes a nested RPC",
}

// counters is a flat set of monotone readings taken at one instant.
// Differences of two snapshots are the work done in between; sums of
// differences aggregate several measured phases (failover's cycles).
type counters map[string]float64

func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// readProc records the benchmark process's own CPU time and Go heap
// activity.
func (c counters) readProc() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c["cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = float64(ms.Mallocs)
	c["alloc_bytes"] = float64(ms.TotalAlloc)
	c["gcs"] = float64(ms.NumGC)
}

// serviceShort maps each server's metric label — as Cluster and
// amoebad name it — to the short name the per-layer metrics use.
var serviceShort = map[string]string{
	"directory": "dir", "dir": "dir",
	"bank":  "bank",
	"files": "file", "file": "file",
	"blocks": "block", "block": "block",
}

// readProm records the servers' own request, admission and WAL
// counters from one scrape.
func (c counters) readProm(s promSnap) {
	c["reqs"] = s.sum("amoeba_requests_total")
	c["shed"] = s.sum("amoeba_shed_total")
	c.putHist("queue", s.hist("amoeba_request_queue_wait_ns"))
	for label, short := range serviceShort {
		h := s.hist("amoeba_request_handle_ns", `service="`+label+`"`)
		c["handle."+short+".sum"] += h.sum
		c["handle."+short+".count"] += h.count
	}
	c.putHist("wal_sync", s.hist("amoeba_wal_sync_ns"))
	c.putHist("wal_batch", s.hist("amoeba_wal_batch_records"))
}

func (c counters) putHist(key string, h hist) {
	c[key+".sum"] = h.sum
	c[key+".count"] = h.count
}

func (c counters) hist(key string) hist { return hist{c[key+".sum"], c[key+".count"]} }

// readSimNet records the simulated network's frame counters.
func (c counters) readSimNet(st amnet.Stats) {
	c["frames"] = float64(st.Sent)
	c["overrun"] = float64(st.Overrun)
}

// readDisks records WAL device writes and syncs summed over every
// machine that has a WAL (primaries and standbys alike).
func (c counters) readDisks(walFault func(amnet.MachineID) *vdisk.FaultStore) {
	var w, s uint64
	for m := amnet.MachineID(1); m < 256; m++ {
		if fs := walFault(m); fs != nil {
			st := fs.Stats()
			w += st.Writes
			s += st.Syncs
		}
	}
	c["disk_writes"] = float64(w)
	c["disk_syncs"] = float64(s)
}

// layerMetrics turns counter differences over ops completed
// operations into per-layer metrics. Metrics whose layer did no work
// are left out, so the caller reports them as not applicable.
func layerMetrics(d counters, ops float64, simnet, tcp bool) map[string]float64 {
	m := map[string]float64{}
	if ops <= 0 {
		return m
	}
	m["proc.cpu_us_per_op"] = d["cpu_ns"] / 1e3 / ops
	if _, ok := d["daemon_cpu_ns"]; ok {
		m["amoebad.cpu_us_per_op"] = d["daemon_cpu_ns"] / 1e3 / ops
	}
	m["go.allocs_per_op"] = d["mallocs"] / ops
	m["go.bytes_per_op"] = d["alloc_bytes"] / ops
	m["go.gc_per_kop"] = d["gcs"] * 1e3 / ops
	if simnet {
		m["amnet.frames_per_op"] = d["frames"] / ops
		m["amnet.overrun"] = d["overrun"]
	}
	if tcp {
		m["amnet.frames_per_op"] = d["tcp_sends"] / ops
		m["amnet.tcp_send_mean_us"] = hist{d["tcp_send_ns"], d["tcp_sends"]}.mean() / 1e3
		m["amnet.tcp_bytes_per_op"] = d["tcp_bytes"] / ops
	}
	m["rpc.server_reqs_per_op"] = d["reqs"] / ops
	m["rpc.queue_wait_mean_us"] = d.hist("queue").mean() / 1e3
	m["rpc.shed"] = d["shed"]
	for _, short := range []string{"dir", "bank", "file", "block"} {
		if h := d.hist("handle." + short); h.count > 0 {
			m["svc."+short+".handle_mean_us"] = h.mean() / 1e3
		}
	}
	if h := d.hist("wal_sync"); h.count > 0 {
		m["wal.sync_mean_us"] = h.mean() / 1e3
		m["wal.records_per_commit"] = d.hist("wal_batch").mean()
	}
	if d["disk_writes"] > 0 {
		m["vdisk.writes_per_op"] = d["disk_writes"] / ops
		m["vdisk.syncs_per_op"] = d["disk_syncs"] / ops
	}
	return m
}

// stealReading is the CPU time the hypervisor took from the virtual
// machine the benchmark runs in (steal) and the total CPU time so far, in ticks, from the
// first line of /proc/stat. Steal is the main source of run-to-run
// spread on a shared host, so every run reports its share.
type stealReading struct{ steal, total float64 }

func readSteal() stealReading {
	var r stealReading
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return r
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		r.total += v
		if i == 8 {
			r.steal = v
		}
	}
	return r
}

// since describes the steal share between an earlier reading and now.
func (r stealReading) since() string {
	pct, ok := r.pctSince()
	if !ok {
		return "host: vCPU steal unknown"
	}
	return fmt.Sprintf("host: vCPU steal was %.1f%% of CPU time during the measured phase", pct)
}

// pctSince is the steal share between an earlier reading and now, in
// percent of CPU time.
func (r stealReading) pctSince() (float64, bool) {
	now := readSteal()
	if now.total <= r.total {
		return 0, false
	}
	return 100 * (now.steal - r.steal) / (now.total - r.total), true
}
