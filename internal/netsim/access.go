package netsim

import (
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// access is the part of a route one host fixes. Every route starts at the
// gateway of (src.AS, src.City) and ends at the gateway of (dst.AS,
// dst.City), so a host's access link — to the source's first router or
// from the destination's last — is the same link on every route it is an
// end of. ms holds its delay, km·adjust(direct, factor)/⅔c, for both
// values of direct; trig is the host location's, for the path noise.
// TrigDistance and cableFactor are symmetric bit for bit, so one entry
// serves both ends.
type access struct {
	ms   [2]float64
	trig geo.Trig
}

// placeHosts fills the access table, one world host per par unit.
func (s *Sim) placeHosts() {
	s.hosts = make([]access, len(s.W.Hosts))
	par.For(len(s.W.Hosts), func(i int) {
		s.hosts[i] = s.computeAccess(&s.W.Hosts[i])
	})
}

// access returns h's access link: from the table when h is the world's
// host, computed otherwise (an ephemeral web server, ID −1, or a changed
// copy of a world host).
func (s *Sim) access(h *world.Host) access {
	if i := s.hostCell(h); i >= 0 {
		return s.hosts[i]
	}
	return s.computeAccess(h)
}

// hostCell returns h's cell in the access table, or -1 when h is not
// &W.Hosts[h.ID].
func (s *Sim) hostCell(h *world.Host) int {
	if uint(h.ID) < uint(len(s.hosts)) && &s.W.Hosts[h.ID] == h {
		return h.ID
	}
	return -1
}

// computeAccess prices h's access link to its gateway.
func (s *Sim) computeAccess(h *world.Host) access {
	gw := s.router(routerRef{asID: h.AS, city: h.City, role: roleGateway})
	t := geo.MakeTrig(h.Loc)
	km := geo.TrigDistance(t, gw.trig)
	f := s.cableFactor(rhash.Hash(uint64(h.Addr)), gw.id)
	return access{
		ms:   [2]float64{km * s.adjust(false, f) / geo.TwoThirdsC, km * s.adjust(true, f) / geo.TwoThirdsC},
		trig: t,
	}
}

// b2i indexes access.ms by a route's direct flag.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
