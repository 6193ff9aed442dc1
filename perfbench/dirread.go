package main

import (
	"context"
	"fmt"
	"sync"

	"amoeba"
	"amoeba/internal/server/dirsvr"
)

// dirRead is the dir_read workload: 2 client machines in a closed loop
// against a default Cluster (durable dirsvr, no replicas), 95%
// LookupPath over a 256×256 tree and 5% Enter/Remove on each client's
// private directory.
type dirRead struct {
	simCluster
	seed   uint64
	traced bool
	gens   []*rng
	paths  []string // "/dD/fF" at D*treeNames+F
	dirs   []*dirsvr.Client
	root   amoeba.Capability
	priv   []*privDir
}

const dirReadClients = 2

func newDirRead(seed uint64, traced bool) *dirRead {
	w := &dirRead{seed: seed, traced: traced, paths: make([]string, treeDirs*treeNames)}
	for d := 0; d < treeDirs; d++ {
		for f := 0; f < treeNames; f++ {
			w.paths[d*treeNames+f] = fmt.Sprintf("/d%d/f%d", d, f)
		}
	}
	for c := 0; c < dirReadClients; c++ {
		w.gens = append(w.gens, newRNG(seed, "dir_read", c))
	}
	return w
}

func (w *dirRead) clients() int  { return dirReadClients }
func (w *dirRead) next(c int) op { return nextDirRead(w.gens[c]) }

// treeCap is the capability entered at /dD/fF.
func (w *dirRead) treeCap(d, f int) amoeba.Capability {
	return genCap(w.seed, 2, uint64(d*treeNames+f))
}

func (w *dirRead) setup(ctx context.Context) error {
	if err := w.boot(amoeba.ClusterConfig{Seed: w.seed}, w.traced); err != nil {
		return err
	}
	for c := 0; c < dirReadClients; c++ {
		rc, err := w.newClient(nil)
		if err != nil {
			return err
		}
		w.dirs = append(w.dirs, dirsvr.NewClient(rc))
	}
	root, err := w.dirs[0].CreateDir(ctx, w.cl.DirPort())
	if err != nil {
		return fmt.Errorf("creating root: %w", err)
	}
	w.root = root
	// Each client populates every other directory of the tree.
	errs := make([]error, dirReadClients)
	var wg sync.WaitGroup
	for c := 0; c < dirReadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.populate(ctx, c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for c := 0; c < dirReadClients; c++ {
		p, err := newPrivDir(ctx, w.dirs[c], w.cl.DirPort(), w.seed^uint64(c+1)<<40)
		if err != nil {
			return err
		}
		w.priv = append(w.priv, p)
	}
	return nil
}

func (w *dirRead) populate(ctx context.Context, c int) error {
	d := w.dirs[c]
	for i := c; i < treeDirs; i += dirReadClients {
		dir, err := d.CreateDir(ctx, w.cl.DirPort())
		if err != nil {
			return fmt.Errorf("creating /d%d: %w", i, err)
		}
		if err := d.Enter(ctx, w.root, fmt.Sprintf("d%d", i), dir); err != nil {
			return fmt.Errorf("entering /d%d: %w", i, err)
		}
		for f := 0; f < treeNames; f++ {
			if err := d.Enter(ctx, dir, fmt.Sprintf("f%d", f), w.treeCap(i, f)); err != nil {
				return fmt.Errorf("entering /d%d/f%d: %w", i, f, err)
			}
		}
	}
	return nil
}

func (w *dirRead) do(ctx context.Context, c int, o op) error {
	switch o.kind {
	case opLookup:
		got, err := w.dirs[c].LookupPath(ctx, w.root, w.paths[o.a*treeNames+o.b])
		if err != nil {
			return err
		}
		if got != w.treeCap(o.a, o.b) {
			return fmt.Errorf("lookup /d%d/f%d: %w", o.a, o.b, errMismatch)
		}
		return nil
	case opToggle:
		return w.priv[c].toggle(ctx, w.dirs[c], o.a)
	}
	return fmt.Errorf("dir_read: unexpected op %v", o)
}

func (w *dirRead) check(ctx context.Context) []string {
	var wrong []string
	for c, p := range w.priv {
		wrong = append(wrong, p.check(ctx, w.dirs[c], fmt.Sprintf("client %d", c))...)
	}
	return wrong
}
