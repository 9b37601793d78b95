package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declaredMetric is one metric as BENCHMARK.json declares it. Times
// and rates are reference-normalized (see ref.go) except peak_rss_mb
// and the raw ref.kernel_ms.
type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// declared is the part of BENCHMARK.json the benchmark reads: the
// metrics it prints, with their units and bounds.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// metricSet collects a run's figures. Every metric of the kind being
// printed is present: a layer a workload does not exercise reads 0
// (the serving tier on the offline workloads, the VM layer split on
// serve-jobs), which is its measured busy time there.
type metricSet map[string]metric

func newMetricSet(decl []declaredMetric) metricSet {
	m := metricSet{}
	for _, d := range decl {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: metric " + name + " is not declared")
	}
	mt.Value = v
	m[name] = mt
}
