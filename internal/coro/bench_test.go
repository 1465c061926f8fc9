package coro

import "testing"

// The backend resume-cost hierarchy is the heart of the reproduction gap:
// these benchmarks measure one suspension/resumption round trip per
// backend.

func benchBody(suspend func()) int {
	for i := 0; i < 16; i++ {
		suspend()
	}
	return 1
}

func BenchmarkResumeFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		remaining := 16
		h := NewFrame(func() (int, bool) {
			if remaining > 0 {
				remaining--
				return 0, false
			}
			return 1, true
		})
		for !h.Done() {
			h.Resume()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*17), "ns/resume")
}

func BenchmarkResumePull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := NewPull(benchBody)
		for !h.Done() {
			h.Resume()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*17), "ns/resume")
}

func BenchmarkResumeGoroutine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := NewGoro(benchBody)
		for !h.Done() {
			h.Resume()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*17), "ns/resume")
}

func BenchmarkSchedulerInterleaved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunInterleaved(64, 8,
			func(int) Handle[int] {
				remaining := 8
				return NewFrame(func() (int, bool) {
					if remaining > 0 {
						remaining--
						return 0, false
					}
					return 1, true
				})
			},
			func(int, int) {})
	}
}

// BenchmarkSchedulerSlots is BenchmarkSchedulerInterleaved's workload
// through the by-value slot array: the same 64 lookups of 8 suspensions
// at group 8, with frames reset in place instead of allocated behind a
// Handle.
func BenchmarkSchedulerSlots(b *testing.B) {
	s := NewSlots[countFrame, int](8)
	start := func(f *countFrame, i int) bool {
		*f = countFrame{i: i, remaining: 8}
		return true
	}
	sink := func(int, int) {}
	for i := 0; i < b.N; i++ {
		s.Drain(64, 8, start, sink)
	}
}
