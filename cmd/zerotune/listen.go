package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// tier is what serve and gateway share as listening commands: *serve.Server
// and *gateway.Gateway both satisfy it.
type tier interface {
	http.Handler
	SetBoundAddr(addr string)
	Close()
	Summary() string
}

// listenAndDrain is the life of a listening command: bind addr, announce the
// resolved address, serve t until SIGINT/SIGTERM, drain in-flight requests
// within the deadline, close t and print its final digest. Binding comes
// before announcing: with -addr :0 the kernel picks the port, and both the
// stdout line and /healthz report the resolved address, so tests and a
// fronting gateway can spawn replicas on ephemeral ports without a bind
// race. announce prints the command's own stderr lines once the address is
// known.
func listenAndDrain(cmd, addr string, drain time.Duration, t tier, announce func(bound string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", cmd, addr, err)
	}
	bound := ln.Addr().String()
	t.SetBoundAddr(bound)
	fmt.Printf("zerotune %s: listening on http://%s\n", cmd, bound)
	announce(bound)

	srv := &http.Server{Handler: t}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		t.Close()
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "received %s, draining (deadline %s)...\n", got, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	// Handlers are done (or abandoned at the deadline); stop the tier's own
	// goroutines and emit the final observability digest.
	t.Close()
	fmt.Fprintln(os.Stderr, t.Summary())
	if shutdownErr != nil {
		return fmt.Errorf("%s: shutdown: %w", cmd, shutdownErr)
	}
	return nil
}
