package cbg

import "geoloc/internal/telemetry"

// matrixMeters holds a matrix's instrumentation handles, resolved once against
// the registry NewMatrix is handed; all nil, each update a nil check, when
// it is nil.
type matrixMeters struct {
	locates         *telemetry.Counter
	locatesEmpty    *telemetry.Counter
	constraintsKept *telemetry.Histogram
}

func newMatrixMeters(reg *telemetry.Registry) matrixMeters {
	return matrixMeters{
		locates:      reg.Counter("cbg.locates"),
		locatesEmpty: reg.Counter("cbg.locates_empty"),
		constraintsKept: reg.Histogram("cbg.constraints_kept",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
	}
}
