#pragma once
// Trace exporter.
//
// chrome_trace_json renders spans in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// one complete ("ph":"X") event per span, pid = rank, tid = thread, so
// Perfetto / chrome://tracing shows one track per rank x thread.  The
// cluster simulator's schedule goes through the same Span type, so
// simulated and real timelines open side by side in one viewer.

#include <string>
#include <vector>

#include "obs/msgtrace.hpp"
#include "obs/trace.hpp"

namespace dpgen::obs {

/// Renders spans as a Chrome trace-event JSON document.  `dropped` is
/// Tracer::dropped() at export time; it is surfaced in the document's
/// "metadata" object ("spans_dropped") so a reader — human or the
/// analyzer — knows when ring-buffer overflow truncated the timeline.
/// When `msgs` is non-empty each message record also emits a Perfetto
/// flow pair: "s" on the sender's track at send time, "f" on the
/// receiver's track at dispatch time, so the viewer draws an arrow from
/// the producing send span to the consuming dispatch.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::uint64_t dropped = 0,
                              const std::vector<MsgRecord>& msgs = {});

}  // namespace dpgen::obs
