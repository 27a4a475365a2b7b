package obs

import (
	"bytes"
	"testing"
)

// FuzzParseText: ParseText reads the /metrics page of a remote target, input
// from outside the program. On any bytes it returns an error or samples, never
// panics, and CheckHistograms on any page it accepts does not panic either.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("zerotune_requests_total", L("endpoint", "predict")).Inc()
	reg.GaugeFunc("zerotune_up", func() float64 { return 1 })
	h := reg.Histogram("zerotune_latency_seconds", L("class", `gold "a"\b`))
	for _, v := range []float64{0.001, 0.5, 3, 100} {
		h.Observe(v)
	}
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		f.Fatal(err)
	}
	f.Add(page.Bytes())
	for _, seed := range []string{
		"", "\n", "# HELP x y\n# TYPE x counter\nx 1\n", "x 1\nx 2\n", "x{} 1", `x{a="b",a="c"} 1`,
		`x{a="b\"c\\d\ne"} 1`, `x{a="b} 1`, `x{a=b} 1`, `x{a="b",} 1`, `x{="b"} 1`, "x{a=\"b\"}", "x NaN", "x +Inf",
		"x -Inf", "x 1 2", "1x 1", "x\t1", "x 0x1p-2", "x 1e400",
		"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"h_bucket{le=\"1\"} 3\nh_bucket{le=\"0.5\"} 2\nh_count 3\n", "h_bucket{le=\"x\"} 1\n", "h_bucket 1\n",
		"h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count NaN\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = CheckHistograms(samples)
	})
}
