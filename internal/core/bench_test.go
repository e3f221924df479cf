package core

import (
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/ipaddr"
	"geoloc/internal/world"
)

// benchWindow is one op of the stream benchmarks: a default spill window
// of targets, so a `-benchtime 1x` run still averages over
// thousands of calls.
const benchWindow = 4096

var (
	sinkPrefix ipaddr.Prefix24
	sinkMeas   []cbg.Measurement
)

func benchMeasure(b *testing.B, measure func(*StreamCampaign, int, []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement)) {
	s, err := NewStreamCampaign(NewCampaign(world.TinyConfig()), StreamSpec{Targets: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	_, buf := measure(s, 0, nil) // grow the scratch outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := i * benchWindow; t < (i+1)*benchWindow; t++ {
			sinkPrefix, buf = measure(s, t%s.Spec.Targets, buf)
		}
	}
	b.StopTimer()
	sinkMeas = buf
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/target")
	if priced, pruned := s.PricedPruned(); pruned > 0 {
		b.ReportMetric(float64(priced)/float64(priced+pruned)*float64(len(s.vpUnit)), "VPs-priced/target")
	}
}

// BenchmarkStreamMeasureTarget prices one window of targets through the
// bound-pruned selection (K = 16 over the Tiny world's 338 VPs).
func BenchmarkStreamMeasureTarget(b *testing.B) {
	benchMeasure(b, (*StreamCampaign).MeasureTarget)
}

// BenchmarkStreamMeasureTargetBrute is the same window through the
// full-scan oracle: the cost the bound removes.
func BenchmarkStreamMeasureTargetBrute(b *testing.B) {
	benchMeasure(b, (*StreamCampaign).measureTargetBrute)
}
