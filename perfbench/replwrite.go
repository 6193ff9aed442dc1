package main

import (
	"context"
	"fmt"

	"amoeba"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/dirsvr"
)

// replWrite is the repl_write workload: 2 client machines in a closed
// loop against Cluster{Replicas: 3}, 60% Enter/Remove on each client's
// private directory and 40% bank Transfer of 1 between two distinct
// accounts out of 16.
type replWrite struct {
	simCluster
	seed   uint64
	traced bool
	gens   []*rng
	dirs   []*dirsvr.Client
	banks  []*banksvr.Client
	accts  []amoeba.Capability
	priv   []*privDir
}

const (
	replWriteClients = 2
	// replWriteFixed is how many entries setup puts in each private
	// directory besides the toggled names: enough replicated work that
	// setup_s is not dominated by boot-time scheduling noise.
	replWriteFixed = 1024
)

func newReplWrite(seed uint64, traced bool) *replWrite {
	w := &replWrite{seed: seed, traced: traced}
	for c := 0; c < replWriteClients; c++ {
		w.gens = append(w.gens, newRNG(seed, "repl_write", c))
	}
	return w
}

func (w *replWrite) clients() int  { return replWriteClients }
func (w *replWrite) next(c int) op { return nextReplWrite(w.gens[c]) }

func (w *replWrite) setup(ctx context.Context) error {
	if err := w.boot(amoeba.ClusterConfig{Seed: w.seed, Replicas: 3}, w.traced); err != nil {
		return err
	}
	bankPort := w.cl.Bank().Port()
	for c := 0; c < replWriteClients; c++ {
		rc, err := w.newClient(nil)
		if err != nil {
			return err
		}
		w.dirs = append(w.dirs, dirsvr.NewClient(rc))
		w.banks = append(w.banks, banksvr.NewClient(rc, bankPort))
	}
	for i := 0; i < accounts; i++ {
		a, err := w.banks[i%replWriteClients].CreateAccount(ctx, "dollar", openBalance)
		if err != nil {
			return fmt.Errorf("creating account %d: %w", i, err)
		}
		w.accts = append(w.accts, a)
	}
	errs := make(chan error, replWriteClients)
	w.priv = make([]*privDir, replWriteClients)
	for c := 0; c < replWriteClients; c++ {
		go func(c int) { errs <- w.populate(ctx, c) }(c)
	}
	for c := 0; c < replWriteClients; c++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

func (w *replWrite) populate(ctx context.Context, c int) error {
	p, err := newPrivDir(ctx, w.dirs[c], w.cl.DirPort(), w.seed^uint64(c+1)<<40)
	if err != nil {
		return err
	}
	for i := 0; i < replWriteFixed; i++ {
		name, entry := fmt.Sprintf("s%d", i), genCap(p.seed, 3, uint64(i))
		if err := w.dirs[c].Enter(ctx, p.dir, name, entry); err != nil {
			return fmt.Errorf("client %d: entering %s: %w", c, name, err)
		}
		p.fixed[name] = entry
	}
	w.priv[c] = p
	return nil
}

func (w *replWrite) do(ctx context.Context, c int, o op) error {
	switch o.kind {
	case opToggle:
		return w.priv[c].toggle(ctx, w.dirs[c], o.a)
	case opTransfer:
		return w.banks[c].Transfer(ctx, w.accts[o.a], w.accts[o.b], "dollar", 1)
	}
	return fmt.Errorf("repl_write: unexpected op %v", o)
}

// check verifies that money was conserved exactly and that each
// private directory ends in its last acknowledged state.
func (w *replWrite) check(ctx context.Context) []string {
	var wrong []string
	var total int64
	for i, a := range w.accts {
		bal, err := w.banks[0].Balance(ctx, a)
		if err != nil {
			return append(wrong, fmt.Sprintf("balance of account %d: %v", i, err))
		}
		total += bal["dollar"]
	}
	if want := int64(accounts) * openBalance; total != want {
		wrong = append(wrong, fmt.Sprintf("bank total %d, want %d", total, want))
	}
	for c, p := range w.priv {
		wrong = append(wrong, p.check(ctx, w.dirs[c], fmt.Sprintf("client %d", c))...)
	}
	return wrong
}
