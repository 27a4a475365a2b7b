package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition-format line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText is a strict parser for the Prometheus text exposition format
// (the subset WritePrometheus emits: sample lines and # comments, no
// timestamps). It rejects malformed metric names, unterminated or
// badly-escaped label values, duplicate label keys, trailing garbage and
// unparsable values — the round-trip test that keeps /metrics honest.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", lineno, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameChar(c byte) bool { return isNameStart(c) || (c >= '0' && c <= '9') }

func parseLine(line string) (Sample, error) {
	i := 0
	for i < len(line) && isNameChar(line[i]) {
		if i == 0 && !isNameStart(line[i]) {
			break
		}
		i++
	}
	if i == 0 {
		return Sample{}, fmt.Errorf("invalid metric name in %q", line)
	}
	s := Sample{Name: line[:i], Labels: map[string]string{}}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return Sample{}, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end:]
	}
	if !strings.HasPrefix(rest, " ") {
		return Sample{}, fmt.Errorf("missing value separator in %q", line)
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "" || strings.ContainsAny(valStr, " \t") {
		return Sample{}, fmt.Errorf("trailing garbage after value in %q", line)
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return Sample{}, fmt.Errorf("bad value %q in %q", valStr, line)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at s[0] == '{' and
// returns the index just past the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && isNameChar(s[i]) {
			i++
		}
		key := s[start:i]
		if key == "" || !isNameStart(key[0]) || strings.Contains(key, ":") {
			return 0, fmt.Errorf("invalid label name %q", key)
		}
		if i+1 >= len(s) || s[i] != '=' || s[i+1] != '"' {
			return 0, fmt.Errorf("label %q missing quoted value", key)
		}
		i += 2
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated value for label %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c in label %q", s[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := into[key]; dup {
			return 0, fmt.Errorf("duplicate label %q", key)
		}
		into[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		} else if i < len(s) && s[i] != '}' {
			return 0, fmt.Errorf("expected ',' or '}' after label %q", key)
		}
	}
}

// FindSample returns the value of the first sample matching name and every
// given label (extra labels on the sample are allowed).
func FindSample(samples []Sample, name string, labels ...Label) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if s.Labels[l.Key] != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// Samples is the registry as a scraper of its /metrics page would see it:
// rendered by WritePrometheus and parsed back, so an in-process reader and a
// remote one read the same thing.
func (r *Registry) Samples() ([]Sample, error) {
	var page bytes.Buffer
	if err := r.WritePrometheus(&page); err != nil {
		return nil, err
	}
	return ParseText(&page)
}

// HistogramStat is one histogram series as a parsed page shows it: how many
// observations, their sum, and the rendered median and p99 (zero when the
// series is empty, for which no quantile is rendered).
type HistogramStat struct {
	Count    uint64
	Sum      float64
	P50, P99 float64
}

// Mean is Sum over Count, 0 when empty.
func (h HistogramStat) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// FindHistogram reads the histogram series name{labels} off a parsed page;
// ok is whether the page has the series at all.
func FindHistogram(samples []Sample, name string, labels ...Label) (h HistogramStat, ok bool) {
	count, ok := FindSample(samples, name+"_count", labels...)
	h.Count = uint64(count)
	h.Sum, _ = FindSample(samples, name+"_sum", labels...)
	h.P50, _ = FindSample(samples, name, append(labels, L("quantile", "0.5"))...)
	h.P99, _ = FindSample(samples, name, append(labels, L("quantile", "0.99"))...)
	return h, ok
}

// CheckHistograms validates every histogram family in samples: `le` bounds
// must parse, appear in ascending order and carry non-decreasing cumulative
// counts, and the +Inf bucket must equal the family's _count series.
func CheckHistograms(samples []Sample) error {
	type bucket struct {
		le  float64
		val float64
	}
	groups := map[string][]bucket{}
	counts := map[string]float64{}
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("obs: %s sample without le label", s.Name)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("obs: %s has unparsable le=%q", s.Name, le)
				}
				bound = v
			}
			groups[histKey(s, true)] = append(groups[histKey(s, true)], bucket{bound, s.Value})
		}
		if strings.HasSuffix(s.Name, "_count") {
			counts[strings.TrimSuffix(s.Name, "_count")+"|"+labelKey(s.Labels, "")] = s.Value
		}
	}
	for key, bs := range groups {
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				return fmt.Errorf("obs: histogram %s: le bounds not ascending (%g after %g)", key, bs[i].le, bs[i-1].le)
			}
			if bs[i].val < bs[i-1].val {
				return fmt.Errorf("obs: histogram %s: cumulative counts decrease at le=%g", key, bs[i].le)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("obs: histogram %s: missing +Inf bucket", key)
		}
		if c, ok := counts[key]; !ok || c != last.val {
			return fmt.Errorf("obs: histogram %s: +Inf bucket %g != count %g", key, last.val, c)
		}
	}
	return nil
}

// histKey identifies one histogram series: base name + labels minus le.
func histKey(s Sample, bucket bool) string {
	name := s.Name
	if bucket {
		name = strings.TrimSuffix(name, "_bucket")
	}
	return name + "|" + labelKey(s.Labels, "le")
}

// labelKey canonicalizes a label map, skipping one key.
func labelKey(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}
