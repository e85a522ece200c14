// Package kvproc is the one place outside bench/ that runs kvserve and
// kvbench as child processes: the orchestrators under scripts/ start
// servers, drive the load generator and write their artifacts through
// it, so "ready", "stopped" and "cleaned up" mean one thing everywhere.
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
// tool's. Network and Addr say where a server answers RESP ("unix" or
// "tcp").
type Proc struct {
	Network, Addr string

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
// env is appended to the tool's environment.
func spawn(env []string, stdout io.Writer, bin string, args ...string) (*Proc, error) {
	p := &Proc{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), env...)
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

// launch spawns a kvserve and records where it will answer, which it
// reads off the -sock or -addr argument.
func launch(env []string, bin string, args ...string) (*Proc, error) {
	var network, addr string
	for i := 0; i+1 < len(args); i++ {
		switch args[i] {
		case "-sock":
			network, addr = "unix", args[i+1]
		case "-addr":
			network, addr = "tcp", args[i+1]
		}
	}
	if addr == "" {
		return nil, errors.New("kvproc: a server needs -sock or -addr among its arguments")
	}
	p, err := spawn(env, nil, bin, args...)
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p.Network, p.Addr = network, addr
	return p, nil
}

// Start runs a kvserve binary with args and returns once it answers
// PING. The caller owns the child until Stop or Kill.
func Start(bin string, args ...string) (*Proc, error) {
	return StartEnv(nil, bin, args...)
}

// StartEnv is Start with extra "KEY=value" environment entries, e.g.
// the GOMAXPROCS a scaling sweep gives the server.
func StartEnv(env []string, bin string, args ...string) (*Proc, error) {
	p, err := launch(env, bin, args...)
	if err != nil {
		return nil, err
	}
	if err := p.waitReady(); err != nil {
		p.Kill()
		return nil, err
	}
	return p, nil
}

// waitReady polls PING until the server answers, failing at once if
// the child exits first.
func (p *Proc) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s on %s exited before it answered PING: %v", p.cmd.Path, p.Addr, p.cmd.ProcessState)
		default:
		}
		if c, err := resp.Dial(p.Network, p.Addr); err == nil {
			v, err := c.Do("PING")
			c.Close()
			if err == nil && v == "PONG" {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s on %s did not answer PING within %s", p.cmd.Path, p.Addr, readyTimeout)
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

// Stop interrupts the child, kills it if it has not exited within
// stopGrace, and returns once it is reaped.
func (p *Proc) Stop() { stop([]*Proc{p}) }

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
