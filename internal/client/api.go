package client

import (
	"context"

	"zerotune/internal/serve"
)

// The typed endpoints. Request/response shapes are the serve wire types —
// the gateway proxies them unmodified, so one method set covers both tiers.
// A call's SLO class rides on ctx (serve.WithSLOClass).

// Predict asks for the cost estimate of one placed parallel plan.
func (c *Client) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	var out serve.PredictResponse
	if err := c.do(ctx, "/v1/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tune asks the optimizer to pick parallelism degrees for a logical query.
func (c *Client) Tune(ctx context.Context, req *serve.TuneRequest) (*serve.TuneResponse, error) {
	var out serve.TuneResponse
	if err := c.do(ctx, "/v1/tune", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reload hot-swaps the served model (empty path re-reads the current file).
func (c *Client) Reload(ctx context.Context, req *serve.ReloadRequest) (*serve.ReloadResponse, error) {
	var out serve.ReloadResponse
	if err := c.do(ctx, "/v1/reload", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches /healthz. A serving endpoint answers 200. A replica without
// a model, or a gateway with no healthy replica, answers 503 with a health
// body, not the error envelope; it surfaces as an *APIError with Code
// unavailable.
func (c *Client) Health(ctx context.Context) (*serve.HealthResponse, error) {
	var out serve.HealthResponse
	if err := c.do(ctx, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
