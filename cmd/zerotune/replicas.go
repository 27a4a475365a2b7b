package main

import (
	"fmt"
	"os"
	"time"

	"zerotune/internal/serve"
)

// inProcessReplicas starts n serve replicas of the model file inside this
// process, named replica-0 … for the gateway's routing and metrics. cmd
// prefixes errors and the per-replica log line. The returned function closes
// every replica started.
func inProcessReplicas(cmd, model string, n int, timeout time.Duration) ([]*serve.InProcessBackend, func(), error) {
	var pool []*serve.InProcessBackend
	closeAll := func() {
		for _, b := range pool {
			b.Server().Close()
		}
	}
	for i := 0; i < n; i++ {
		s := serve.New(serve.Options{RequestTimeout: timeout})
		name := fmt.Sprintf("replica-%d", i)
		pool = append(pool, serve.NewInProcessBackend(name, s))
		entry, err := s.ServeModelFile(model)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("%s: %s: %w", cmd, name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: in-process %s serving model %s\n", cmd, name, entry.ID)
	}
	return pool, closeAll, nil
}

// asBackends is pool as the gateway takes it.
func asBackends(pool []*serve.InProcessBackend) []serve.Backend {
	out := make([]serve.Backend, len(pool))
	for i, b := range pool {
		out[i] = b
	}
	return out
}
