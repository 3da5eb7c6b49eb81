package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// MetricNameCheck pins the metric-name conventions every dashboard
// depends on: names registered on the obs Registry must be lowercase
// snake_case string literals carrying the Config.MetricPrefix ("ksp_"),
// counters must end in "_total", histograms in a unit suffix
// ("_seconds"/"_bytes"), and gauges must not masquerade as counters.
// Renaming a shipped metric breaks the dashboards built on it; this
// check makes sure new ones are born right.
var MetricNameCheck = &Analyzer{
	Name: "metricname",
	Run:  runMetricName,
}

var registryMethods = map[string]string{
	"Counter":     "counter",
	"CounterFunc": "counter",
	"Gauge":       "gauge",
	"GaugeFunc":   "gauge",
	"Histogram":   "histogram",
}

func runMetricName(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryCall(pass, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				pass.Reportf(call.Args[0].Pos(),
					"metric name must be a string literal so conventions are checkable; found %s", exprText(call.Args[0]))
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			checkMetricLiteral(pass, lit, kind, name)
			return true
		})
	}
}

// registryCall reports whether the call is a registration method on the
// obs metrics Registry, and which metric kind it creates.
func registryCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeOf(pass.Info, call)
	if fn == nil {
		return "", false
	}
	kind, ok := registryMethods[fn.Name()]
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := namedName(sig.Recv().Type())
	if !strings.HasSuffix(recv, ".Registry") {
		return "", false
	}
	return kind, true
}

func checkMetricLiteral(pass *Pass, lit *ast.BasicLit, kind, name string) {
	if !validMetricChars(name) {
		pass.Reportf(lit.Pos(),
			"metric name %q must be lowercase snake_case ([a-z0-9_], starting with a letter)", name)
		return
	}
	prefix := pass.Config.MetricPrefix
	if prefix != "" && !strings.HasPrefix(name, prefix) {
		pass.Reportf(lit.Pos(), "metric name %q must carry the %q prefix", name, prefix)
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "counter %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "gauge %q must not end in _total (reads as a counter)", name)
		}
	case "histogram":
		suffixes := pass.Config.HistogramSuffixes
		if len(suffixes) > 0 && !hasSuffixAny(name, suffixes) {
			pass.Reportf(lit.Pos(),
				"histogram %q must end in a unit suffix (%s)", name, strings.Join(suffixes, ", "))
		}
	}
}

func validMetricChars(s string) bool {
	if s == "" || !(s[0] >= 'a' && s[0] <= 'z') {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			continue
		}
		return false
	}
	return true
}
