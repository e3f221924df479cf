// Command worldgen generates a synthetic world and prints (or dumps) its
// inventory: cities, ASes, probes, anchors, representatives.
//
// Usage:
//
//	worldgen [-scale tiny|medium|paper] [-seed N] [-json out.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"geoloc/internal/asclass"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worldgen: ")
	scale := flag.String("scale", "medium", "world scale: tiny, medium, or paper")
	seed := flag.Uint64("seed", 0, "override the world seed (0 keeps the default)")
	jsonPath := flag.String("json", "", "write the full world inventory to this JSON file")
	tele := telemetry.NewCLI()
	flag.Parse()
	tele.Start()
	defer tele.Finish()

	cfg, err := world.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	span := tele.Registry().StartSpan("phase.worldgen")
	w := world.Generate(cfg)
	span.End()
	if ctx.Err() != nil {
		log.Print("interrupted; skipping inventory output")
		tele.Finish()
		os.Exit(130)
	}

	fmt.Printf("world: scale=%s seed=%d\n", *scale, cfg.Seed)
	fmt.Printf("  cities: %d   ASes: %d\n", len(w.Cities), len(w.ASes))
	fmt.Printf("  probes: %d (%d corrupted)   anchors: %d (%d corrupted)\n",
		len(w.Probes), cfg.CorruptProbes, len(w.Anchors), cfg.CorruptAnchors)
	fmt.Printf("  hosts total: %d   representatives: %d per anchor\n", len(w.Hosts), 3)

	byCont := map[world.Continent]int{}
	for _, id := range w.Anchors {
		byCont[w.Cities[w.Host(id).City].Continent]++
	}
	fmt.Print("  anchors per continent:")
	for _, ct := range world.AllContinents {
		fmt.Printf(" %s=%d", ct, byCont[ct])
	}
	fmt.Println()

	tally := asclass.NewTally()
	for _, id := range w.Probes {
		tally.Add(w.ASOf(w.Host(id)).Cat)
	}
	fmt.Print("  probe AS categories:")
	for _, cat := range asclass.Categories {
		fmt.Printf(" %s=%.1f%%", cat, 100*tally.Fraction(cat))
	}
	fmt.Println()

	if *jsonPath != "" {
		if err := dumpJSON(w, *jsonPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("inventory written to %s\n", *jsonPath)
	}
}

// dump types keep the JSON schema stable and documented.
type dumpCity struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Continent  string  `json:"continent"`
	Lat        float64 `json:"lat"`
	Lon        float64 `json:"lon"`
	Population float64 `json:"population"`
	RadiusKm   float64 `json:"radius_km"`
	HasIXP     bool    `json:"has_ixp"`
}

type dumpHost struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Addr       string  `json:"addr"`
	City       int     `json:"city"`
	ASN        int     `json:"asn"`
	Lat        float64 `json:"lat"`
	Lon        float64 `json:"lon"`
	LastMileMs float64 `json:"last_mile_ms"`
	Corrupted  bool    `json:"corrupted,omitempty"`
}

type dump struct {
	Seed   uint64     `json:"seed"`
	Cities []dumpCity `json:"cities"`
	Hosts  []dumpHost `json:"hosts"`
}

func dumpJSON(w *world.World, path string) error {
	d := dump{Seed: w.Cfg.Seed}
	for _, c := range w.Cities {
		d.Cities = append(d.Cities, dumpCity{
			ID: c.ID, Name: c.Name, Continent: c.Continent.Code(),
			Lat: c.Loc.Lat, Lon: c.Loc.Lon,
			Population: c.Population, RadiusKm: c.RadiusKm, HasIXP: c.HasIXP,
		})
	}
	for i := range w.Hosts {
		h := &w.Hosts[i]
		d.Hosts = append(d.Hosts, dumpHost{
			ID: h.ID, Kind: h.Kind.String(), Addr: h.Addr.String(),
			City: h.City, ASN: w.ASes[h.AS].ASN,
			Lat: h.Loc.Lat, Lon: h.Loc.Lon,
			LastMileMs: h.LastMileMs, Corrupted: h.Corrupted,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
