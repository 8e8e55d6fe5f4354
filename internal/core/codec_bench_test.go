package core

// Micro-benchmarks for the wire codec. Run with e.g.
//
//	go test ./internal/core/ -run=^$ -bench Wire -benchmem
//
// and convert to JSON with cmd/benchjson (see BENCH_wire.json at the
// repo root). Encode and Decode are benchmarked per message kind; the
// custom wire-bytes metric records the frame size on the wire.
// Encode measures the pooled append path hosts actually use (buffer
// from the frame pool, returned after the write).

import (
	"testing"

	"secmr/internal/homo"
)

// benchWireMessages pairs each message kind with a stable bench name.
func benchWireMessages(s homo.Scheme) []struct {
	name string
	msg  any
} {
	msgs := wireMessages(s)
	return []struct {
		name string
		msg  any
	}{
		{"ShareGrant", msgs[0]},
		{"RuleCipherMsg", msgs[1]},
		{"MaliciousReport", msgs[2]},
	}
}

func BenchmarkWireEncodeCompact(b *testing.B) {
	s := homo.NewPlain(96)
	for _, tc := range benchWireMessages(s) {
		b.Run(tc.name, func(b *testing.B) {
			data, err := EncodeMessage(tc.msg)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 0, MessageWireSize(tc.msg))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := AppendMessage(buf, tc.msg)
				if err != nil {
					b.Fatal(err)
				}
				_ = out
			}
			b.ReportMetric(float64(len(data)), "wire-bytes")
		})
	}
}

func BenchmarkWireDecodeCompact(b *testing.B) {
	s := homo.NewPlain(96)
	for _, tc := range benchWireMessages(s) {
		b.Run(tc.name, func(b *testing.B) {
			data, err := EncodeMessage(tc.msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeMessage(data, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "wire-bytes")
		})
	}
}
