package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// proc is one server process of the fleet under test.
type proc struct {
	name   string
	args   []string
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error
}

// startProc launches bin and returns once it logs its listen address.
// Children get SIGKILL if the generator dies, so no server outlives a run.
func startProc(ctx context.Context, name, bin string, args []string, logDir string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, args: args, cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, ": listening on "); i >= 0 {
				f := strings.Fields(line[i+len(": listening on "):])
				if len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		io.Copy(logf, stderr)
		p.err = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, p.err, logf.Name())
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	case <-time.After(3 * time.Minute):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 3m; see %s", name, logf.Name())
	}
}

func (p *proc) url() string { return "http://" + p.addr }

// stop asks the process to drain, kills it if it does not exit in time, and
// waits for it to end.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", p.name)
}

// fleet is the topology under test: a gateway over two WAL-backed shard
// leaders, each with one read replica.
type fleet struct {
	leaders  []*proc
	replicas []*proc
	gw       *proc
}

func (f *fleet) daemons() []*proc { return append(append([]*proc(nil), f.leaders...), f.replicas...) }

func (f *fleet) all() []*proc {
	ps := f.daemons()
	if f.gw != nil {
		ps = append(ps, f.gw)
	}
	return ps
}

// stop ends every process, gateway first, and waits for all of them.
func (f *fleet) stop() {
	defer live.CompareAndSwap(f, nil)
	if f.gw != nil {
		f.gw.stop()
	}
	var wg sync.WaitGroup
	for _, p := range f.daemons() {
		wg.Add(1)
		go func(p *proc) { defer wg.Done(); p.stop() }(p)
	}
	wg.Wait()
}

var shardNames = []string{"s0", "s1"}

// live is the fleet being launched or run, for the interrupt handler.
var live atomic.Pointer[fleet]

// launchFleet starts the leaders, then their replicas (which bootstrap from
// the leaders), then the gateway. Every command line is returned for the
// run log.
func launchFleet(ctx context.Context, bin, runDir string, seed uint64, p *prepared) (*fleet, error) {
	f := &fleet{}
	live.Store(f)
	common := []string{"-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10),
		"-data", p.DataPath, "-model", p.PredPath, "-locator", p.LocPath, "-pipeline=false"}
	startAll := func(names []string, argsOf func(i int) []string, exe string) ([]*proc, error) {
		out := make([]*proc, len(names))
		errs := make([]error, len(names))
		var wg sync.WaitGroup
		for i, n := range names {
			wg.Add(1)
			go func(i int, n string) {
				defer wg.Done()
				out[i], errs[i] = startProc(ctx, n, exe, argsOf(i), runDir)
			}(i, n)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return out, err
			}
		}
		return out, nil
	}
	var err error
	f.leaders, err = startAll(shardNames, func(i int) []string {
		return append(append([]string(nil), common...),
			"-fleet.id", shardNames[i], "-fleet.peers", strings.Join(shardNames, ","),
			"-wal.dir", filepath.Join(runDir, "wal-"+shardNames[i]))
	}, filepath.Join(bin, "nevermindd"))
	if err != nil {
		f.stopStarted()
		return nil, err
	}
	replicaNames := []string{"s0-r0", "s1-r0"}
	f.replicas, err = startAll(replicaNames, func(i int) []string {
		return append(append([]string(nil), common...),
			"-replica.of", f.leaders[i].url(), "-replica.id", replicaNames[i])
	}, filepath.Join(bin, "nevermindd"))
	if err != nil {
		f.stopStarted()
		return nil, err
	}
	gwArgs := []string{"-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10)}
	for i, n := range shardNames {
		gwArgs = append(gwArgs, "-shard", n+"="+f.leaders[i].url(), "-replica", n+"="+f.replicas[i].url())
	}
	f.gw, err = startProc(ctx, "gateway", filepath.Join(bin, "nevermindgw"), gwArgs, runDir)
	if err != nil {
		f.stopStarted()
		return nil, err
	}
	return f, nil
}

func (f *fleet) stopStarted() {
	var wg sync.WaitGroup
	for _, p := range f.all() {
		if p != nil {
			wg.Add(1)
			go func(p *proc) { defer wg.Done(); p.stop() }(p)
		}
	}
	wg.Wait()
}
