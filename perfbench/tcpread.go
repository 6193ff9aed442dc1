package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/amnet"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/flatfs"
	"amoeba/internal/wire"
)

// tcpRead is the tcp_read workload: one client over loopback TCP in a
// closed loop against a separate cmd/amoebad process running the
// block, file and directory services; 50% directory Lookup and 50%
// 1 KiB flatfs ReadAt (which makes a nested flatfs→blocksvr RPC).
type tcpRead struct {
	seed  uint64
	bin   string
	gen   *rng
	d     *daemon
	nic   *countingNIC
	fb    *fbox.FBox
	dirs  *dirsvr.Client
	files *flatfs.Client
	dir   amoeba.Capability
	names []string
	fcaps []amoeba.Capability
	want  []byte // expected contents of every file, back to back
}

// clientMachine is the benchmark's own machine id on the TCP cluster;
// the daemon is machine 1.
const clientMachine = 99

func newTCPRead(seed uint64, bin string) *tcpRead {
	w := &tcpRead{seed: seed, bin: bin, gen: newRNG(seed, "tcp_read", 0), names: make([]string, tcpNames)}
	for i := range w.names {
		w.names[i] = fmt.Sprintf("n%d", i)
	}
	w.want = make([]byte, tcpFiles*tcpFileBlocks*tcpBlock)
	for f := 0; f < tcpFiles; f++ {
		size := tcpFileBlocks * tcpBlock
		filePattern(seed, f, w.want[f*size:(f+1)*size])
	}
	return w
}

func (w *tcpRead) clients() int             { return 1 }
func (w *tcpRead) next(int) op              { return nextTCPRead(w.gen) }
func (w *tcpRead) kind() (simnet, tcp bool) { return false, true }
func (w *tcpRead) shipLag() (float64, bool) { return 0, false }
func (w *tcpRead) ringSize() int            { return 1024 } // amoebad's fixed ring
func (w *tcpRead) pollEvery() time.Duration { return amoebadTraceEvery }
func (w *tcpRead) clientMachines() map[uint32]bool {
	return map[uint32]bool{clientMachine: true}
}

func (w *tcpRead) setup(ctx context.Context) error {
	nic, err := amnet.NewTCPNet(clientMachine, map[amnet.MachineID]string{clientMachine: "127.0.0.1:0"})
	if err != nil {
		return fmt.Errorf("client NIC: %w", err)
	}
	w.nic = &countingNIC{NIC: nic}
	w.fb = fbox.New(w.nic, nil)
	// amoebad draws its ports from a nonzero seed; 0 would mean crypto/rand.
	d, err := startDaemon(w.bin, w.seed<<1|1, nic.Addr())
	if err != nil {
		return err
	}
	w.d = d
	nic.SetPeer(1, d.addr)
	rc := rpc.NewClient(w.fb, locate.New(w.fb, locate.Config{}), rpc.ClientConfig{Source: crypto.NewSeededSource(w.seed)})
	w.dirs = dirsvr.NewClient(rc)
	w.files = flatfs.NewClient(rc, d.ports["file"])

	if w.dir, err = w.dirs.CreateDir(ctx, d.ports["dir"]); err != nil {
		return fmt.Errorf("creating directory: %w", err)
	}
	for i, name := range w.names {
		if err := w.dirs.Enter(ctx, w.dir, name, genCap(w.seed, 4, uint64(i))); err != nil {
			return fmt.Errorf("entering %s: %w", name, err)
		}
	}
	size := tcpFileBlocks * tcpBlock
	for f := 0; f < tcpFiles; f++ {
		fc, err := w.files.Create(ctx)
		if err != nil {
			return fmt.Errorf("creating file %d: %w", f, err)
		}
		if err := w.files.WriteAt(ctx, fc, 0, w.want[f*size:(f+1)*size]); err != nil {
			return fmt.Errorf("writing file %d: %w", f, err)
		}
		w.fcaps = append(w.fcaps, fc)
	}
	return nil
}

func (w *tcpRead) do(ctx context.Context, _ int, o op) error {
	switch o.kind {
	case opLookup:
		got, err := w.dirs.Lookup(ctx, w.dir, w.names[o.a])
		if err != nil {
			return err
		}
		if got != genCap(w.seed, 4, uint64(o.a)) {
			return fmt.Errorf("lookup %s: %w", w.names[o.a], errMismatch)
		}
		return nil
	case opRead:
		got, err := w.files.ReadAt(ctx, w.fcaps[o.a], uint64(o.b*tcpBlock), tcpBlock)
		if err != nil {
			return err
		}
		off := (o.a*tcpFileBlocks + o.b) * tcpBlock
		if !bytes.Equal(got, w.want[off:off+tcpBlock]) {
			return fmt.Errorf("read file %d block %d: %w", o.a, o.b, errMismatch)
		}
		return nil
	}
	return fmt.Errorf("tcp_read: unexpected op %v", o)
}

// check re-reads the whole of every file: the daemon must still hold
// exactly the seeded pattern written at setup.
func (w *tcpRead) check(ctx context.Context) []string {
	size := tcpFileBlocks * tcpBlock
	var wrong []string
	for f, fc := range w.fcaps {
		got, err := w.files.ReadAt(ctx, fc, 0, uint32(size))
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("re-reading file %d: %v", f, err))
		} else if !bytes.Equal(got, w.want[f*size:(f+1)*size]) {
			wrong = append(wrong, fmt.Sprintf("file %d no longer holds its seeded pattern", f))
		}
	}
	return wrong
}

func (w *tcpRead) read(c counters) error {
	p, err := w.d.scrape()
	if err != nil {
		return err
	}
	c.readProm(p)
	c["tcp_sends"] = float64(w.nic.sends.Load())
	c["tcp_send_ns"] = float64(w.nic.sendNS.Load())
	c["tcp_bytes"] = float64(w.nic.bytes.Load())
	cpu, err := w.d.cpu()
	if err != nil {
		return err
	}
	c["daemon_cpu_ns"] = float64(cpu)
	return nil
}

func (w *tcpRead) requests(n int) ([]obs.ReqRecord, error) { return w.d.requests(n) }

func (w *tcpRead) close() {
	if w.d != nil {
		w.d.stop()
	}
	if w.fb != nil {
		_ = w.fb.Close()
	} else if w.nic != nil {
		_ = w.nic.Close()
	}
}

// countingNIC wraps the benchmark's own TCP NIC and counts what it
// sends: frames, bytes and the time each send takes.
type countingNIC struct {
	amnet.NIC
	sends, sendNS, bytes atomic.Uint64
}

func (n *countingNIC) SendBuf(dst amnet.MachineID, b *wire.Buf) error {
	size := b.Len()
	t0 := time.Now()
	err := n.NIC.SendBuf(dst, b)
	n.count(size, time.Since(t0))
	return err
}

func (n *countingNIC) Send(dst amnet.MachineID, payload []byte) error {
	t0 := time.Now()
	err := n.NIC.Send(dst, payload)
	n.count(len(payload), time.Since(t0))
	return err
}

func (n *countingNIC) count(size int, d time.Duration) {
	n.sends.Add(1)
	n.sendNS.Add(uint64(d))
	n.bytes.Add(uint64(size))
}

// daemon is one running amoebad process.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed when the process has been waited for
	addr   string        // its TCP NIC
	debug  string        // its debug HTTP base URL
	ports  map[string]amoeba.Port
	http   *http.Client
	drains sync.WaitGroup
	mu     sync.Mutex
	stderr bytes.Buffer // the daemon's log, for error reports
}

// daemonStart bounds how long amoebad may take to print its ports.
const daemonStart = 20 * time.Second

// startDaemon runs amoebad as machine 1 with the block, file and
// directory services and waits until it has printed its ports and its
// debug address. client is the benchmark NIC's address, which the
// daemon dials to reply.
func startDaemon(bin string, seed uint64, client string) (*daemon, error) {
	d := &daemon{
		done:  make(chan struct{}),
		ports: map[string]amoeba.Port{},
		http:  &http.Client{Timeout: 10 * time.Second},
	}
	d.cmd = exec.Command(bin,
		"-machine", "1",
		"-registry", fmt.Sprintf("1=127.0.0.1:0,%d=%s", clientMachine, client),
		"-services", "block,file,dir",
		"-seed", strconv.FormatUint(seed, 10),
		"-debug-addr", "127.0.0.1:0")
	// One P in the daemon too: with Go's default, the two runtimes'
	// schedulers contend for both vCPUs, and about a third of runs fell
	// into a mode with two to four times the p99 and p999 of the rest.
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs))
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting amoebad: %w", err)
	}
	ready := make(chan string, 8) // one per announcement line; at most 5 arrive
	d.drains.Add(2)
	go d.drain(stdout, ready, func(line string) (string, bool) {
		name, hex, ok := strings.Cut(line, "\t")
		if !ok {
			return "", false
		}
		p, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return "", false
		}
		d.mu.Lock()
		d.ports[name] = amoeba.Port(p)
		d.mu.Unlock()
		return "port " + name, true
	})
	go d.drain(stderr, ready, func(line string) (string, bool) {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.stderr.WriteString(line + "\n")
		if _, rest, ok := strings.Cut(line, " listening on "); ok {
			d.addr, _, _ = strings.Cut(rest, " ")
			return "addr", true
		}
		if _, rest, ok := strings.Cut(line, "debug http on "); ok {
			d.debug = strings.TrimSpace(rest)
			return "debug", true
		}
		return "", false
	})
	go func() {
		d.drains.Wait()
		_ = d.cmd.Wait()
		close(d.done)
	}()

	need := map[string]bool{"addr": true, "debug": true, "port block": true, "port file": true, "port dir": true}
	timeout := time.After(daemonStart)
	for len(need) > 0 {
		select {
		case what := <-ready:
			delete(need, what)
		case <-d.done:
			return nil, fmt.Errorf("amoebad exited during start-up: %s", d.log())
		case <-timeout:
			d.stop()
			return nil, fmt.Errorf("amoebad did not start within %v: %s", daemonStart, d.log())
		}
	}
	return d, nil
}

// drain reads one of the daemon's output streams to its end, passing
// every line to parse; recognised lines are announced on ready.
func (d *daemon) drain(r io.Reader, ready chan<- string, parse func(string) (string, bool)) {
	defer d.drains.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if what, ok := parse(sc.Text()); ok {
			select {
			case ready <- what:
			default:
			}
		}
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

// stop interrupts the daemon and waits for it to exit, killing it if
// it does not exit in time.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get(d.debug + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (d *daemon) scrape() (promSnap, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

func (d *daemon) requests(n int) ([]obs.ReqRecord, error) {
	b, err := d.get(fmt.Sprintf("/debug/requests?n=%d", n))
	if err != nil {
		return nil, err
	}
	var rs []obs.ReqRecord
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("decoding /debug/requests: %w", err)
	}
	return rs, nil
}

// cpu is the daemon's user plus system CPU time so far, from
// /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times")
	}
	// The times are in USER_HZ ticks, 100 per second on Linux.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
