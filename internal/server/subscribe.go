package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"surfknn/internal/continuous"
	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/server/api"
	"surfknn/internal/server/front"
)

// The subscription-id routes. A subscription is server-side state (the
// cached top-k, its safe region, its epoch stamp — see internal/continuous),
// so unlike the stateless query routes these are keyed by a subscription id
// in the path and exist only on a server. Registration is a plan like any
// other query (POST /v1/subscribe, SUBSCRIBE — see Execute). Every move
// answer carries an X-Safe-Region header: "hit" when it was served from
// the safe region without engine work, "miss" when it re-evaluated.

// errNoMonitor answers the continuous routes on a server built without a
// monitor (a database lacking an object store).
var errNoMonitor = front.Internal("continuous queries unavailable: no object store")

func subscribeResponse(id uint64, res core.Result, sr core.SafeRegion) api.SubscribeResponse {
	return api.SubscribeResponse{
		ID:         id,
		Result:     toResponse(res),
		SafeRadius: api.Float(sr.Radius),
		AnchorX:    sr.Center.X,
		AnchorY:    sr.Center.Y,
		Epoch:      res.Epoch,
	}
}

// subscriptionID parses the {id} path segment.
func subscriptionID(r *http.Request) (uint64, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, front.BadRequest("invalid subscription id %q", r.PathValue("id"))
	}
	return id, nil
}

// --- POST /v1/subscribe/{id}/move ---

func (s *Server) handleMove(r *http.Request) (front.Reply, error) {
	if s.mon == nil {
		return front.Reply{}, errNoMonitor
	}
	id, err := subscriptionID(r)
	if err != nil {
		return front.Reply{}, err
	}
	var req api.MoveRequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	p := geom.Vec2{X: req.X, Y: req.Y}
	reply := func(res core.Result, sr core.SafeRegion, region string) front.Reply {
		return front.Reply{Value: subscribeResponse(id, res, sr), Epoch: res.Epoch, SafeRegion: region}
	}

	// The safe-region fast path: no admission slot, no session, no engine.
	// Serving a cached, epoch-current answer is cheaper than the admission
	// bookkeeping it would queue behind.
	if res, sr, hit := s.mon.TryMove(id, p); hit {
		return reply(res, sr, "hit"), nil
	}

	// Validate the target before spending an admission slot: a move off the
	// terrain is the addressed location not existing, a 404.
	if _, err := s.surfacePoint(req.X, req.Y); err != nil {
		return front.Reply{}, err
	}
	ctx, cancel := s.requestContext(r.Context(), time.Duration(req.Timeout))
	defer cancel()
	if err := s.admit(ctx); err != nil {
		return front.Reply{}, err
	}
	defer s.adm.release()

	res, sr, hit, err := s.mon.Move(ctx, id, p)
	if errors.Is(err, continuous.ErrUnknownSubscription) {
		return front.Reply{}, front.NotFound("no subscription %d", id)
	}
	if err != nil {
		return front.Reply{}, err
	}
	if hit {
		return reply(res, sr, "hit"), nil
	}
	return reply(res, sr, "miss"), nil
}

// --- DELETE /v1/subscribe/{id} ---

func (s *Server) handleUnsubscribe(r *http.Request) (front.Reply, error) {
	if s.mon == nil {
		return front.Reply{}, errNoMonitor
	}
	id, err := subscriptionID(r)
	if err != nil {
		return front.Reply{}, err
	}
	if !s.mon.Unsubscribe(id) {
		return front.Reply{}, front.NotFound("no subscription %d", id)
	}
	return front.Reply{Value: api.UnsubscribeResponse{Removed: true}, Epoch: s.db.CurrentEpoch()}, nil
}
