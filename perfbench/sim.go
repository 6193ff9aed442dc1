package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"amoeba"
	"amoeba/internal/locate"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/dirsvr"
)

// simCluster is the part every in-process workload shares: one
// amoeba.Cluster on SimNet (zero injected delay), its client machines,
// and the counters it exports.
type simCluster struct {
	cl       *amoeba.Cluster
	replicas bool
	ring     int
	machines map[uint32]bool
}

// boot starts a cluster. A traced run enlarges the access-log ring so
// that polling it misses no request.
func (s *simCluster) boot(cfg amoeba.ClusterConfig, traced bool) error {
	s.ring = 1024
	if traced {
		s.ring = accessLogTraced
	}
	cfg.AccessLogSize = s.ring
	s.replicas = cfg.Replicas > 1
	s.machines = map[uint32]bool{}
	cl, err := amoeba.NewCluster(cfg)
	if err != nil {
		return fmt.Errorf("booting cluster: %w", err)
	}
	s.cl = cl
	return nil
}

// newClient attaches one more client machine with the cluster's
// default RPC client, or with one configured by cfg.
func (s *simCluster) newClient(cfg *rpc.ClientConfig) (*rpc.Client, error) {
	fb, c, err := s.cl.NewMachine()
	if err != nil {
		return nil, fmt.Errorf("attaching client machine: %w", err)
	}
	s.machines[uint32(fb.Machine())] = true
	if cfg != nil {
		c = rpc.NewClient(fb, locate.New(fb, locate.Config{}), *cfg)
	}
	return c, nil
}

func (s *simCluster) scrape() (promSnap, error) {
	var b bytes.Buffer
	if err := s.cl.Metrics().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

func (s *simCluster) read(c counters) error {
	p, err := s.scrape()
	if err != nil {
		return err
	}
	c.readProm(p)
	c.readSimNet(s.cl.Net().Stats())
	c.readDisks(s.cl.WALFault)
	return nil
}

func (s *simCluster) kind() (simnet, tcp bool) { return true, false }

// shipLag is the largest replication lag any group reports now.
func (s *simCluster) shipLag() (float64, bool) {
	if !s.replicas {
		return 0, false
	}
	p, err := s.scrape()
	if err != nil {
		return 0, false
	}
	lag := 0.0
	for k, v := range p {
		if n, _ := family(k); n == "amoeba_ship_lag_records" {
			lag = max(lag, v)
		}
	}
	return lag, true
}

func (s *simCluster) requests(n int) ([]obs.ReqRecord, error) {
	return s.cl.AccessLog().Dump(n, rpc.StatusName), nil
}

func (s *simCluster) ringSize() int                   { return s.ring }
func (s *simCluster) pollEvery() time.Duration        { return traceEvery }
func (s *simCluster) clientMachines() map[uint32]bool { return s.machines }

func (s *simCluster) close() {
	if s.cl != nil {
		_ = s.cl.Close()
	}
}

// privNameList are the names each client toggles in its private
// directory.
var privNameList = func() []string {
	ns := make([]string, privNames)
	for i := range ns {
		ns[i] = fmt.Sprintf("p%d", i)
	}
	return ns
}()

// privDir is one client's private directory and the model of its
// contents: only that client writes it, so the model is exact.
type privDir struct {
	dir     amoeba.Capability
	seed    uint64 // entry capabilities derive from it
	present []bool
	fixed   map[string]amoeba.Capability // entries made at setup
}

func newPrivDir(ctx context.Context, d *dirsvr.Client, port amoeba.Port, seed uint64) (*privDir, error) {
	dir, err := d.CreateDir(ctx, port)
	if err != nil {
		return nil, fmt.Errorf("creating private directory: %w", err)
	}
	return &privDir{dir: dir, seed: seed, present: make([]bool, privNames), fixed: map[string]amoeba.Capability{}}, nil
}

// toggle enters name a when absent and removes it when present.
func (p *privDir) toggle(ctx context.Context, d *dirsvr.Client, a int) error {
	name := privNameList[a]
	if p.present[a] {
		if err := d.Remove(ctx, p.dir, name); err != nil {
			return err
		}
		p.present[a] = false
		return nil
	}
	if err := d.Enter(ctx, p.dir, name, genCap(p.seed, 1, uint64(a))); err != nil {
		return err
	}
	p.present[a] = true
	return nil
}

// check compares the directory's listing with the model.
func (p *privDir) check(ctx context.Context, d *dirsvr.Client, who string) []string {
	es, err := d.List(ctx, p.dir)
	if err != nil {
		return []string{fmt.Sprintf("%s: listing private directory: %v", who, err)}
	}
	want := map[string]amoeba.Capability{}
	for k, v := range p.fixed {
		want[k] = v
	}
	for a, on := range p.present {
		if on {
			want[privNameList[a]] = genCap(p.seed, 1, uint64(a))
		}
	}
	var wrong []string
	for _, e := range es {
		c, ok := want[e.Name]
		switch {
		case !ok:
			wrong = append(wrong, fmt.Sprintf("%s: private directory holds %q, which the last acknowledged state lacks", who, e.Name))
		case c != e.Cap:
			wrong = append(wrong, fmt.Sprintf("%s: private entry %q holds the wrong capability", who, e.Name))
		}
		delete(want, e.Name)
	}
	for name := range want {
		wrong = append(wrong, fmt.Sprintf("%s: acknowledged entry %q is missing", who, name))
	}
	return wrong
}
