package main

import (
	"fmt"

	"amoeba"
)

// rng is splitmix64: a few arithmetic steps per draw, and the same
// stream for the same seed on every platform. Each client owns one, so
// a client's op sequence depends only on (seed, workload, client).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string, client int) *rng {
	r := &rng{s: seed}
	for _, c := range stream {
		r.s = r.s*0x100000001B3 ^ uint64(c)
	}
	r.s ^= uint64(client+1) * 0xD6E8FEB86659FD93
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix hashes a seed and two coordinates into one word; generated
// capabilities and file contents come from it, so a check can recompute
// the expected value instead of storing it.
func mix(seed uint64, a, b uint64) uint64 {
	r := rng{s: seed ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F}
	return r.next()
}

// genCap is the capability a workload enters under coordinates (a, b).
// The directory server stores entries opaquely, so any well-formed
// capability is a valid input.
func genCap(seed, a, b uint64) amoeba.Capability {
	h1, h2 := mix(seed, a, b), mix(^seed, a, b)
	return amoeba.Capability{
		Server: amoeba.Port(h1) & 0xFFFF_FFFF_FFFF,
		Object: uint32(h1>>48) | uint32(h2&0xFF)<<16,
		Rights: amoeba.Rights(h2 >> 8),
		Check:  (h2 >> 16) & 0xFFFF_FFFF_FFFF,
	}
}

// opKind names what one generated operation does.
type opKind uint8

const (
	opLookup   opKind = iota // dir_read: LookupPath /dA/fB; tcp_read: Lookup name A
	opToggle                 // Enter private name A if absent, else Remove it
	opTransfer               // move 1 dollar from account A to account B
	opRead                   // tcp_read: ReadAt file A, block B
	opEnter                  // failover: Enter a fresh name
)

func (k opKind) String() string {
	return [...]string{"lookup", "toggle", "transfer", "read", "enter"}[k]
}

// op is one generated operation: a kind and two coordinates whose
// meaning depends on the kind.
type op struct {
	kind opKind
	a, b int
}

func (o op) String() string { return fmt.Sprintf("%v(%d,%d)", o.kind, o.a, o.b) }

// Workload shapes. Sizes are fixed: they are part of the benchmark's
// definition, not knobs.
const (
	treeDirs  = 128 // dir_read: directories under the root
	treeNames = 64  // dir_read: names per directory
	privNames = 64  // private names each client toggles

	accounts    = 16            // repl_write: bank accounts
	openBalance = 1_000_000_000 // repl_write: opening balance of each account

	tcpNames      = 4096 // tcp_read: names in the looked-up directory
	tcpFiles      = 64   // tcp_read: files read
	tcpFileBlocks = 16   // tcp_read: 1 KiB blocks per file
	tcpBlock      = 1024 // tcp_read: bytes per ReadAt
)

// nextDirRead draws dir_read's mix: 95% LookupPath over the whole tree,
// 5% Enter/Remove on the client's private directory.
func nextDirRead(r *rng) op {
	if r.intn(100) < 95 {
		return op{kind: opLookup, a: r.intn(treeDirs), b: r.intn(treeNames)}
	}
	return op{kind: opToggle, a: r.intn(privNames)}
}

// nextReplWrite draws repl_write's mix: 60% Enter/Remove on the
// client's private directory, 40% Transfer between distinct accounts.
func nextReplWrite(r *rng) op {
	if r.intn(100) < 60 {
		return op{kind: opToggle, a: r.intn(privNames)}
	}
	a := r.intn(accounts)
	b := r.intn(accounts - 1)
	if b >= a {
		b++
	}
	return op{kind: opTransfer, a: a, b: b}
}

// nextTCPRead draws tcp_read's mix: 50% directory Lookup, 50% 1 KiB
// ReadAt of a seeded file.
func nextTCPRead(r *rng) op {
	if r.intn(2) == 0 {
		return op{kind: opLookup, a: r.intn(tcpNames)}
	}
	return op{kind: opRead, a: r.intn(tcpFiles), b: r.intn(tcpFileBlocks)}
}

// filePattern fills dst with file f's seeded contents.
func filePattern(seed uint64, f int, dst []byte) {
	for i := 0; i < len(dst); i += 8 {
		w := mix(seed, uint64(f), uint64(i))
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(w >> (8 * j))
		}
	}
}
