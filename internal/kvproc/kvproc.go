// Package kvproc is the one place outside bench/ that runs kvserve and
// kvbench as child processes: scripts/health boots its cluster, drives
// the load generator and writes its artifacts through it, so "ready",
// "stopped" and "cleaned up" mean one thing wherever a tool runs them.
//
// A server is ready when it answers PING, not when a dial succeeds. It
// is stopped by SIGINT (kvserve drains and removes its socket), then by
// SIGKILL after stopGrace. Every child runs in its own process group
// and is registered until it has been reaped; Fatal and a
// SIGINT/SIGTERM to the tool stop whatever is still registered before
// the tool exits, so no failure path leaves a server holding its ports.
package kvproc

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"addrkv/internal/resp"
)

// readyTimeout bounds the wait for a launched server's first PONG.
const readyTimeout = 15 * time.Second

// stopGrace is how long a child has to exit after SIGINT (a variable
// so the escalation test need not wait it out).
var stopGrace = 10 * time.Second

// Proc is one child process in its own process group, its stderr the
// tool's. addr is the TCP address a server answers RESP on.
type Proc struct {
	addr   string
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
}

// live is the registry of children not yet reaped.
var live = struct {
	sync.Mutex
	procs map[*Proc]struct{}
	dying bool      // teardown has begun: nothing new may start
	once  sync.Once // installs the signal handler with the first child
}{procs: map[*Proc]struct{}{}}

// spawn starts bin in its own process group, registered for teardown.
func spawn(stdout io.Writer, bin string, args ...string) (*Proc, error) {
	p := &Proc{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stdout = stdout
	p.cmd.Stderr = os.Stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}

	live.once.Do(func() {
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		go func() {
			fmt.Fprintf(os.Stderr, "kvproc: %v, stopping children\n", <-sigs)
			stopAll()
			os.Exit(1)
		}()
	})
	// Start and register under one lock: a teardown either sees the
	// child or refuses it, never misses it.
	live.Lock()
	defer live.Unlock()
	if live.dying {
		return nil, errors.New("kvproc: shutting down")
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	live.procs[p] = struct{}{}
	go func() {
		_ = p.cmd.Wait() // the outcome is read from ProcessState
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls PING until the server answers, failing at once if
// the child exits first.
func (p *Proc) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s on %s exited before it answered PING: %v", p.cmd.Path, p.addr, p.cmd.ProcessState)
		default:
		}
		if c, err := resp.Dial("tcp", p.addr); err == nil {
			v, err := c.Do("PING")
			c.Close()
			if err == nil && v == "PONG" {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s on %s did not answer PING within %s", p.cmd.Path, p.addr, readyTimeout)
}

// signal sends sig to the child's process group unless it has exited.
func (p *Proc) signal(sig syscall.Signal) {
	select {
	case <-p.exited:
	default:
		_ = syscall.Kill(-p.cmd.Process.Pid, sig) // ESRCH: it exited just now
	}
}

// reaped drops an exited child from the registry.
func (p *Proc) reaped() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// Kill SIGKILLs the child, with no goodbye, and reaps it.
func (p *Proc) Kill() {
	p.signal(syscall.SIGKILL)
	<-p.exited
	p.reaped()
}

// stop runs the shutdown ladder on all of ps at once: one SIGINT each,
// one shared grace period, SIGKILL for whatever is left.
func stop(ps []*Proc) {
	for _, p := range ps {
		p.signal(syscall.SIGINT)
	}
	deadline := time.Now().Add(stopGrace)
	for _, p := range ps {
		select {
		case <-p.exited:
		case <-time.After(time.Until(deadline)):
			p.signal(syscall.SIGKILL)
			<-p.exited
		}
		p.reaped()
	}
}

// stopAll stops every registered child and refuses new ones.
func stopAll() {
	live.Lock()
	live.dying = true
	ps := make([]*Proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	stop(ps)
}

// Fatal reports err as tool's, stops every child still running and
// exits 1. It is the only way a tool with children may die.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	stopAll()
	os.Exit(1)
}
