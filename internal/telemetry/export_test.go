package telemetry

// ActivityAtFailedNode lets the external tests run the invariant over a
// whole scenario's event stream.
var ActivityAtFailedNode = activityAtFailedNode

// QueueDepthMismatch lets the external tests run the queue invariant over a
// whole scenario's event stream.
var QueueDepthMismatch = queueDepthMismatch

// AirOverlap lets the external tests run the single-radio invariant over a
// whole scenario's event stream.
var AirOverlap = airOverlap
