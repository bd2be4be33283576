// Spatialdb: a small persistent spatial database of world cities built on
// the paged BV-tree — the kind of workload (2-D geographic points with
// heavy clustering) that motivates multidimensional indexing. It
// demonstrates float-coordinate normalisation, persistence with reopen,
// bounding-box queries, and a k-nearest-neighbour search with the tree's
// best-first Nearest, its candidates re-ranked by great-circle distance.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"

	"bvtree"
)

// city is a record in the application's own table; the tree stores the
// index from (lat, lon) to the record slot.
type city struct {
	name     string
	lat, lon float64
	pop      int
}

var cities = []city{
	{"Tokyo", 35.68, 139.69, 37400000},
	{"Delhi", 28.61, 77.21, 29400000},
	{"Shanghai", 31.23, 121.47, 26300000},
	{"São Paulo", -23.55, -46.63, 21700000},
	{"Mexico City", 19.43, -99.13, 21600000},
	{"Cairo", 30.04, 31.24, 20100000},
	{"Mumbai", 19.08, 72.88, 20000000},
	{"Beijing", 39.90, 116.41, 19600000},
	{"Dhaka", 23.81, 90.41, 19600000},
	{"Osaka", 34.69, 135.50, 19300000},
	{"New York", 40.71, -74.01, 18800000},
	{"Karachi", 24.86, 67.01, 15400000},
	{"Buenos Aires", -34.60, -58.38, 15000000},
	{"Istanbul", 41.01, 28.98, 14800000},
	{"Kolkata", 22.57, 88.36, 14900000},
	{"Lagos", 6.52, 3.38, 13900000},
	{"London", 51.51, -0.13, 9300000},
	{"Paris", 48.86, 2.35, 11000000},
	{"Munich", 48.14, 11.58, 1500000},
	{"Berlin", 52.52, 13.41, 3600000},
	{"Madrid", 40.42, -3.70, 6600000},
	{"Rome", 41.90, 12.50, 4300000},
	{"Vienna", 48.21, 16.37, 1900000},
	{"Zurich", 47.38, 8.54, 1400000},
	{"Amsterdam", 52.37, 4.90, 1100000},
	{"San Jose", 37.34, -121.89, 1000000},
	{"San Francisco", 37.77, -122.42, 880000},
	{"Los Angeles", 34.05, -118.24, 12400000},
	{"Chicago", 41.88, -87.63, 8900000},
	{"Sydney", -33.87, 151.21, 4900000},
	{"Melbourne", -37.81, 144.96, 4900000},
	{"Singapore", 1.35, 103.82, 5600000},
	{"Nairobi", -1.29, 36.82, 4400000},
	{"Moscow", 55.76, 37.62, 12500000},
	{"Toronto", 43.65, -79.38, 6200000},
}

func pointFor(c city) bvtree.Point {
	return bvtree.Point{
		bvtree.NormalizeFloat(c.lat, -90, 90),
		bvtree.NormalizeFloat(c.lon, -180, 180),
	}
}

func main() {
	dir, err := os.MkdirTemp("", "spatialdb")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cities.db")

	// Build and persist.
	st, err := bvtree.OpenFileStore(path, bvtree.FileStoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := bvtree.Open(st, nil, bvtree.Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range cities {
		if err := tr.Insert(pointFor(c), uint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted %d cities to %s\n", len(cities), path)

	// Reopen cold.
	st2, err := bvtree.OpenFileStore(path, bvtree.FileStoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	tr, err = bvtree.Open(st2, nil, bvtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened: %d cities, index height %d\n\n", tr.Len(), tr.Height())

	// Bounding-box query: Central Europe.
	rect, err := bvtree.NewRect(
		bvtree.Point{bvtree.NormalizeFloat(45, -90, 90), bvtree.NormalizeFloat(0, -180, 180)},
		bvtree.Point{bvtree.NormalizeFloat(55, -90, 90), bvtree.NormalizeFloat(20, -180, 180)},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cities with lat in [45,55] and lon in [0,20]:")
	err = tr.RangeQuery(rect, func(p bvtree.Point, id uint64) bool {
		c := cities[id]
		fmt.Printf("  %-10s (%.2f, %.2f) pop %d\n", c.name, c.lat, c.lon, c.pop)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// k-nearest-neighbour with the tree's best-first search. Note: the
	// index ranks by distance in normalised coordinate space; for display
	// we re-rank the returned candidates by great-circle distance.
	probe := city{name: "probe", lat: 48.0, lon: 10.0}
	fmt.Printf("\n3 nearest cities to (%.1f, %.1f):\n", probe.lat, probe.lon)
	nbrs, err := tr.Nearest(pointFor(probe), 5)
	if err != nil {
		log.Fatal(err)
	}
	type hit struct {
		c  city
		km float64
	}
	hits := make([]hit, len(nbrs))
	for i, nb := range nbrs {
		c := cities[nb.Payload]
		hits[i] = hit{c: c, km: haversineKm(probe.lat, probe.lon, c.lat, c.lon)}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].km < hits[j].km })
	for _, h := range hits[:3] {
		fmt.Printf("  %-10s %.0f km\n", h.c.name, h.km)
	}
}

func haversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const r = 6371
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * r * math.Asin(math.Sqrt(a))
}
