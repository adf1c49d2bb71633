package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	restore "repro"
	"repro/internal/fleet"
	"repro/internal/server"
)

// fleetWorkers is the pigmix-fleet worker count; each worker has one slot.
const fleetWorkers = 2

// daemon is one restored instance hosted in this process on a loopback
// listener, with its fleet workers when the workload runs on a fleet.
type daemon struct {
	sys       *restore.System
	srv       *server.Server
	coord     *fleet.Coordinator
	transport *http.Transport
	client    *server.Client
	serveErr  chan error
	workers   []*http.Server
	workerErr chan error
}

// startDaemon builds the daemon every workload shares: a WAL-backed state
// directory with the default 100 ms sync, the aggressive heuristic,
// keep-results, the default plan cache, no background GC loop and no
// periodic compaction (per-query eviction still runs). With useFleet,
// execution goes through a coordinator over fleetWorkers in-process
// workers. tr, when non-nil, wraps the backend and hooks engine phases.
func startDaemon(stateDir string, useFleet bool, tr *tracer) (_ *daemon, err error) {
	d := &daemon{serveErr: make(chan error, 1), workerErr: make(chan error, fleetWorkers)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	d.sys = restore.New(
		restore.WithHeuristic(restore.HeuristicAggressive),
		restore.WithRegisterFinalOutputs(true),
		restore.WithPolicy(restore.Policy{KeepAll: true, CheckInputVersions: true}),
	)
	if useFleet {
		var addrs []string
		for i := 0; i < fleetWorkers; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("listen for fleet worker: %w", err)
			}
			addr := "http://" + ln.Addr().String()
			w := fleet.NewWorker(fleet.WorkerConfig{Addr: addr, Slots: 1})
			hs := &http.Server{Handler: w.Handler()}
			d.workers = append(d.workers, hs)
			go func() { d.workerErr <- hs.Serve(ln) }()
			addrs = append(addrs, addr)
		}
		sys := d.sys
		d.coord = fleet.NewCoordinator(sys.Engine(), fleet.Config{
			FS:      sys.FS(),
			Workers: addrs,
			RepoCheck: func(path string) bool {
				return sys.Repository().ReferencesPath(path) || strings.HasPrefix(path, "restore/")
			},
		})
		sys.SetBackend(d.coord)
	}
	if tr != nil {
		tr.install(d.sys)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for daemon: %w", err)
	}
	d.srv, err = server.New(server.Config{System: d.sys, StateDir: stateDir, Fleet: d.coord})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	go func() { d.serveErr <- d.srv.Serve(ln) }()
	d.transport = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	d.client = server.NewClient("http://" + ln.Addr().String())
	d.client.HTTPClient = &http.Client{Transport: d.transport}
	return d, nil
}

// close shuts the daemon and its workers down and waits for every serving
// goroutine to return.
func (d *daemon) close() error {
	var errs []error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.srv.Close(ctx); err != nil {
			errs = append(errs, fmt.Errorf("close daemon: %w", err))
		}
		if err := <-d.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve daemon: %w", err))
		}
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	for _, w := range d.workers {
		if err := w.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close fleet worker: %w", err))
		}
	}
	for range d.workers {
		if err := <-d.workerErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve fleet worker: %w", err))
		}
	}
	return errors.Join(errs...)
}
