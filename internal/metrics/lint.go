package metrics

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// This file is a minimal linter for the Prometheus text exposition format
// (version 0.0.4) — enough structure checking that a scrape of WriteMetrics
// output would be accepted by a real Prometheus server: valid metric and
// label names, parseable values, HELP/TYPE headers preceding each family's
// samples, and no family interleaving. The root package's tests run it over
// scrapes taken at rest and mid-churn.

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)(\s+\d+)?$`)
	labelPairRE  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// LintPrometheus validates text as Prometheus exposition format and returns
// the first problem found, or nil. It also rejects output with zero samples
// (an "empty but parseable" export is a wiring bug, not a healthy scrape).
func LintPrometheus(text string) error {
	typed := map[string]string{} // metric family -> declared type
	closed := map[string]bool{}  // families whose sample run has ended
	samples := 0
	var current string // family whose samples we are inside

	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[3] == "" {
				return fmt.Errorf("line %d: malformed %s line: %q", lineNo, fields[1], line)
			}
			name := fields[2]
			if !metricNameRE.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				kind := strings.TrimSpace(fields[3])
				if kind != "counter" && kind != "gauge" && kind != "histogram" && kind != "summary" && kind != "untyped" {
					return fmt.Errorf("line %d: bad metric type %q", lineNo, kind)
				}
				if _, dup := typed[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				typed[name] = kind
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample line: %q", lineNo, line)
		}
		name, labels, value := m[1], m[3], m[4]
		family := familyOf(name)
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample for %q before its TYPE header", lineNo, name)
		}
		if family != current {
			if closed[family] {
				return fmt.Errorf("line %d: samples for %q interleaved with another family", lineNo, family)
			}
			if current != "" {
				closed[current] = true
			}
			current = family
		}
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				lm := labelPairRE.FindStringSubmatch(pair)
				if lm == nil {
					return fmt.Errorf("line %d: malformed label pair %q", lineNo, pair)
				}
				if !labelNameRE.MatchString(lm[1]) {
					return fmt.Errorf("line %d: bad label name %q", lineNo, lm[1])
				}
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			if value != "+Inf" && value != "-Inf" && value != "NaN" {
				return fmt.Errorf("line %d: bad sample value %q", lineNo, value)
			}
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition output")
	}
	return nil
}

// familyOf strips histogram/summary sample suffixes so _bucket/_sum/_count
// samples attach to their declared family.
func familyOf(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			return base
		}
	}
	return name
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(body string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range body {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\' && inQuote:
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}
