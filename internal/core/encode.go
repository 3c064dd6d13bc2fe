package core

import (
	"encoding/json"
	"fmt"

	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
)

// snapshotJSON is the stable wire form of a Snapshot. Field names are
// part of the tooling contract (gs3sim -dump, external analysis).
type snapshotJSON struct {
	Config configJSON     `json:"config"`
	Time   float64        `json:"time"`
	BigID  radio.NodeID   `json:"bigId"`
	Nodes  []nodeViewJSON `json:"nodes"`
}

type configJSON struct {
	R                 float64 `json:"r"`
	Rt                float64 `json:"rt"`
	GR                float64 `json:"gr"`
	HeartbeatInterval float64 `json:"heartbeatInterval"`
}

type nodeViewJSON struct {
	ID        radio.NodeID   `json:"id"`
	X         float64        `json:"x"`
	Y         float64        `json:"y"`
	IsBig     bool           `json:"isBig,omitempty"`
	Status    string         `json:"status"`
	ILX       float64        `json:"ilX,omitempty"`
	ILY       float64        `json:"ilY,omitempty"`
	OILX      float64        `json:"oilX,omitempty"`
	OILY      float64        `json:"oilY,omitempty"`
	ICC       int            `json:"icc,omitempty"`
	ICP       int            `json:"icp,omitempty"`
	Parent    radio.NodeID   `json:"parent"`
	Children  []radio.NodeID `json:"children,omitempty"`
	Neighbors []radio.NodeID `json:"neighbors,omitempty"`
	Hops      int            `json:"hops,omitempty"`
	Head      radio.NodeID   `json:"head"`
	Candidate bool           `json:"candidate,omitempty"`
	Proxy     radio.NodeID   `json:"proxy"`
	Energy    float64        `json:"energy,omitempty"`
	Blackout  bool           `json:"blackout,omitempty"`
}

var statusByName = func() map[string]Status {
	out := make(map[string]Status, len(statusNames))
	for s, n := range statusNames {
		out[n] = s
	}
	return out
}()

// MarshalJSON encodes the snapshot in the stable wire form.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	out := snapshotJSON{
		Config: configJSON{
			R: s.Config.R, Rt: s.Config.Rt, GR: s.Config.GR,
			HeartbeatInterval: s.Config.HeartbeatInterval,
		},
		Time:  s.Time,
		BigID: s.BigID,
	}
	for _, v := range s.Nodes {
		out.Nodes = append(out.Nodes, nodeViewJSON{
			ID: v.ID, X: v.Pos.X, Y: v.Pos.Y, IsBig: v.IsBig,
			Status: v.Status.String(),
			ILX:    v.IL.X, ILY: v.IL.Y, OILX: v.OIL.X, OILY: v.OIL.Y,
			ICC: int(v.Spiral.ICC), ICP: int(v.Spiral.ICP),
			Parent: v.Parent, Children: v.Children, Neighbors: v.Neighbors,
			Hops: v.Hops, Head: v.Head, Candidate: v.Candidate,
			Proxy: v.Proxy, Energy: v.Energy, Blackout: v.Blackout,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the stable wire form.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var in snapshotJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	cfg := DefaultConfig(in.Config.R)
	cfg.Rt, cfg.GR = in.Config.Rt, in.Config.GR
	if in.Config.HeartbeatInterval > 0 {
		cfg.HeartbeatInterval = in.Config.HeartbeatInterval
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	out := Snapshot{Config: cfg, Time: in.Time, BigID: in.BigID}
	for i, v := range in.Nodes {
		// Network.Snapshot lists nodes by strictly ascending ID ≥ 0;
		// View binary-searches that order, and the checker indexes
		// tables by ID.
		if v.ID < 0 {
			return fmt.Errorf("core: decode snapshot: negative node ID %d", v.ID)
		}
		if i > 0 && v.ID <= in.Nodes[i-1].ID {
			return fmt.Errorf("core: decode snapshot: node ID %d after %d: IDs must be strictly ascending", v.ID, in.Nodes[i-1].ID)
		}
		st, ok := statusByName[v.Status]
		if !ok {
			return fmt.Errorf("core: decode snapshot: unknown status %q", v.Status)
		}
		out.Nodes = append(out.Nodes, NodeView{
			ID: v.ID, Pos: geom.Point{X: v.X, Y: v.Y}, IsBig: v.IsBig,
			Status: st,
			IL:     geom.Point{X: v.ILX, Y: v.ILY},
			OIL:    geom.Point{X: v.OILX, Y: v.OILY},
			Spiral: hexlat.SpiralIndex{ICC: int32(v.ICC), ICP: int32(v.ICP)},
			Parent: v.Parent, Children: v.Children, Neighbors: v.Neighbors,
			Hops: v.Hops, Head: v.Head, Candidate: v.Candidate,
			Proxy: v.Proxy, Energy: v.Energy, Blackout: v.Blackout,
		})
	}
	*s = out
	return nil
}
