package main

import (
	"encoding/json"
	"fmt"

	"snmatch/internal/geom"
)

// servedRegion is one /classify prediction or /detect region as the
// server encodes it.
type servedRegion struct {
	Box *struct {
		X, Y, W, H int
	} `json:"box"`
	Class   string  `json:"class"`
	ClassID int     `json:"class_id"`
	View    int     `json:"view"`
	Score   float64 `json:"score"`
}

type servedBody struct {
	Predictions []servedRegion `json:"predictions"`
	Regions     []servedRegion `json:"regions"`
}

// verify decodes a 200 response body and compares it with the reference
// answer: class, view and score must match exactly, and for detect the
// region count and every box too.
func verify(body []byte, want answer, detect bool) error {
	var sb servedBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return fmt.Errorf("bad response body: %w", err)
	}
	got := sb.Predictions
	if detect {
		got = sb.Regions
	}
	if len(got) != len(want.regions) {
		return fmt.Errorf("%d results, want %d", len(got), len(want.regions))
	}
	for i, g := range got {
		w := want.regions[i]
		if g.ClassID != int(w.class) || g.Class != w.class.String() || g.View != w.view || g.Score != w.score {
			return fmt.Errorf("result %d: got %s(%d) view %d score %v, want %s(%d) view %d score %v",
				i, g.Class, g.ClassID, g.View, g.Score, w.class, int(w.class), w.view, w.score)
		}
		if !detect {
			continue
		}
		if g.Box == nil {
			return fmt.Errorf("region %d: no box", i)
		}
		if box := geom.R(g.Box.X, g.Box.Y, g.Box.X+g.Box.W, g.Box.Y+g.Box.H); box != w.box {
			return fmt.Errorf("region %d: box %v, want %v", i, box, w.box)
		}
	}
	return nil
}
