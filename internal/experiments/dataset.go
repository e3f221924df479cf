package experiments

import (
	"fmt"
	"io"
	"math"

	"geoloc/internal/geo"
	"geoloc/internal/vpsel"
)

// WriteBaselineDataset writes the per-target baseline dataset the paper
// argues the community needs (§1, §7.1): for every target, the estimates
// and errors of each technique, in CSV. This is the artifact a future
// geolocation technique would compare against.
//
// Columns: target index, address, true lat/lon, then per technique the
// estimated lat/lon and error in km (CBG all VPs, shortest ping, single
// selected VP, street level with its method).
func WriteBaselineDataset(ctx *Context, w io.Writer) error {
	c := ctx.C
	street := ctx.StreetResults()

	if _, err := fmt.Fprintln(w, "target,addr,true_lat,true_lon,"+
		"cbg_lat,cbg_lon,cbg_err_km,"+
		"shortestping_lat,shortestping_lon,shortestping_err_km,"+
		"vpsel1_lat,vpsel1_lon,vpsel1_err_km,"+
		"street_lat,street_lon,street_err_km,street_method"); err != nil {
		return err
	}

	writeEst := func(w io.Writer, p geo.Point, ok bool, truth geo.Point) error {
		if !ok {
			_, err := fmt.Fprintf(w, ",,,")
			return err
		}
		_, err := fmt.Fprintf(w, "%.5f,%.5f,%.2f,", p.Lat, p.Lon, geo.Distance(p, truth))
		return err
	}

	for ti, target := range c.Targets {
		truth := target.Loc
		if _, err := fmt.Fprintf(w, "%d,%s,%.5f,%.5f,", ti, target.Addr, truth.Lat, truth.Lon); err != nil {
			return err
		}
		cbgEst, cbgOK := c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC)
		if err := writeEst(w, cbgEst, cbgOK, truth); err != nil {
			return err
		}
		spEst, spOK := c.TargetRTT.ShortestPingSubset(ti, nil)
		if err := writeEst(w, spEst, spOK, truth); err != nil {
			return err
		}
		var selEst geo.Point
		selOK := false
		if sel := vpsel.OriginalSelect(c.RepRTT, ti, 1); len(sel) > 0 {
			selEst, selOK = c.TargetRTT.LocateSubset(ti, sel, geo.TwoThirdsC)
		}
		if err := writeEst(w, selEst, selOK, truth); err != nil {
			return err
		}
		res := street[ti]
		streetErr := geo.Distance(res.Estimate, truth)
		if math.IsNaN(streetErr) {
			streetErr = -1
		}
		if _, err := fmt.Fprintf(w, "%.5f,%.5f,%.2f,%s\n",
			res.Estimate.Lat, res.Estimate.Lon, streetErr, res.Method); err != nil {
			return err
		}
	}
	return nil
}
