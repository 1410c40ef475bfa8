"""The live dashboard page: one self-contained HTML document, no deps.

Served at ``GET /dash`` by :class:`~repro.service.http.ServiceServer`
and written to disk by ``repro dash --snapshot``.  Everything is inline
— CSS, vanilla JS, hand-drawn SVG — because the container has no web
stack and the dashboard must work from a ``file://`` open of a committed
CI artifact.

Two data modes, one page:

* **live** — ``window.SNAPSHOT`` is ``null``; the page polls
  ``/v1/stats`` (the broker's ``repro.service/stats-v2`` document:
  counters, gauges, histograms, wall-clock series, tenants) and
  ``/v1/traces`` every second and re-renders.  Clicking a trace row
  fetches ``/v1/traces/<id>`` for the span waterfall.
* **snapshot** — ``window.SNAPSHOT`` carries the same documents (plus
  pre-fetched trace details, plus optionally an ``engine`` block for
  Collector-only offline runs); polling is skipped and the page renders
  once.

The panel set follows the dask ``distributed/bokeh`` idiom: task-stream
lanes per worker, queue-depth and occupancy strips, per-tenant
submissions, cache hit ratio, and latency histograms.  The script spells
every read of the stats document as ``stats.<path>`` or, for a
``tenants`` entry, ``tenant.<key>`` — ``tests/test_dash.py`` resolves
each one against a live broker's document.
"""

from __future__ import annotations

import json

__all__ = ["render_page"]


def render_page(snapshot: dict | None = None) -> str:
    """The dashboard HTML; ``snapshot`` embeds data for offline viewing."""
    if snapshot is None:
        payload = "null"
    else:
        # "</" must not appear verbatim inside a <script> block
        payload = json.dumps(snapshot, sort_keys=True).replace("</", "<\\/")
    return _PAGE.replace("__SNAPSHOT_JSON__", payload)


_PAGE = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro dash</title>
<style>
  :root { --bg:#11151c; --panel:#1a2029; --ink:#d8dee9; --dim:#7b8699;
          --acc:#6fb3ff; --ok:#69d58c; --warn:#e8c268; --err:#e06c75; }
  body { background:var(--bg); color:var(--ink); margin:0;
         font:13px/1.45 ui-monospace,Menlo,Consolas,monospace; }
  header { display:flex; gap:16px; align-items:baseline; padding:10px 16px;
           border-bottom:1px solid #2a3240; }
  header h1 { font-size:15px; margin:0; color:var(--acc); }
  header .mode { color:var(--dim); }
  #cards { display:flex; flex-wrap:wrap; gap:10px; padding:12px 16px 0; }
  .card { background:var(--panel); border:1px solid #2a3240; border-radius:6px;
          padding:8px 14px; min-width:96px; }
  .card .v { font-size:19px; color:var(--acc); }
  .card .k { color:var(--dim); font-size:11px; }
  #panels { display:grid; grid-template-columns:1fr 1fr; gap:12px; padding:12px 16px; }
  .panel { background:var(--panel); border:1px solid #2a3240; border-radius:6px;
           padding:8px 10px; }
  .panel.wide { grid-column:1 / -1; }
  .panel h2 { font-size:12px; margin:0 0 6px; color:var(--dim);
              text-transform:uppercase; letter-spacing:.08em; }
  svg { display:block; width:100%; }
  table { width:100%; border-collapse:collapse; }
  th,td { text-align:left; padding:3px 8px; border-bottom:1px solid #242c38;
          white-space:nowrap; }
  th { color:var(--dim); font-weight:normal; }
  tr.trace { cursor:pointer; } tr.trace:hover { background:#222a36; }
  .ok{color:var(--ok)} .hit{color:var(--acc)} .coalesced{color:var(--warn)}
  .failed,.rejected,.error{color:var(--err)} .miss{color:var(--ink)}
  #detail pre { color:var(--dim); margin:4px 0; }
  #err { color:var(--err); padding:4px 16px; }
</style>
</head>
<body>
<header>
  <h1>repro dash</h1>
  <span class="mode" id="mode"></span>
  <span class="mode" id="wall"></span>
</header>
<div id="err"></div>
<div id="cards"></div>
<div id="panels"></div>
<script>
"use strict";
window.SNAPSHOT = __SNAPSHOT_JSON__;

const $ = (id) => document.getElementById(id);
const esc = (s) => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = (v, d) => (v === null || v === undefined) ? "-"
  : Number(v).toLocaleString("en-US", {maximumFractionDigits: d ?? 0});

// ---- tiny SVG helpers ------------------------------------------------
const W = 560, H = 64;
function svgOpen(h) { return `<svg viewBox="0 0 ${W} ${h||H}" preserveAspectRatio="none" height="${h||H}">`; }
function stepPath(values, h, peak) {
  h = h || H;
  if (!values.length) return "";
  peak = peak || Math.max(...values, 1e-9);
  const dx = W / values.length;
  let d = `M0,${h - h * values[0] / peak}`;
  values.forEach((v, i) => {
    const y = h - h * Math.min(1, v / peak);
    d += `L${i * dx},${y}L${(i + 1) * dx},${y}`;
  });
  return d + `L${W},${h}L0,${h}Z`;
}
function area(values, color, h, label, unit) {
  h = h || H;
  const peak = Math.max(...values, 1e-9);
  return svgOpen(h)
    + `<path d="${stepPath(values, h, peak)}" fill="${color}" fill-opacity="0.35" stroke="${color}"/>`
    + `<text x="4" y="12" fill="#7b8699" font-size="10">${esc(label || "")} peak=${fmt(peak, 2)}${esc(unit || "")}</text>`
    + `</svg>`;
}
function barRow(label, value, peak, color) {
  const w = peak > 0 ? Math.max(1, 260 * value / peak) : 1;
  return `<tr><td>${esc(label)}</td>`
    + `<td><svg width="264" height="10" viewBox="0 0 264 10">`
    + `<rect x="0" y="1" width="${w}" height="8" fill="${color}"/></svg></td>`
    + `<td>${fmt(value, 1)}</td></tr>`;
}
function histBars(hist, color) {
  if (!hist || !hist.count) return "<div class='mode'>(no samples)</div>";
  const idxs = Object.keys(hist.buckets).map(Number).sort((a, b) => a - b);
  const peak = Math.max(...idxs.map(i => hist.buckets[String(i)]), 1);
  const bw = Math.max(2, Math.floor(W / Math.max(idxs.length, 1)) - 1);
  let s = svgOpen(56);
  idxs.forEach((idx, i) => {
    const c = hist.buckets[String(idx)];
    const h = Math.max(1, 44 * c / peak);
    s += `<rect x="${i * (bw + 1)}" y="${50 - h}" width="${bw}" height="${h}" fill="${color}"/>`;
  });
  s += `<text x="4" y="12" fill="#7b8699" font-size="10">n=${hist.count} p50=${fmt(hist.p50,2)}ms p99=${fmt(hist.p99,2)}ms</text></svg>`;
  return s;
}
const LANE = 16;
function taskStream(rows, span) {
  // rows: [{lane, start, end, color, title}], times in ms on a shared axis
  const lanes = [...new Set(rows.map(r => r.lane))].sort((a, b) => a - b);
  if (!lanes.length) return "<div class='mode'>(no completed work yet)</div>";
  const h = Math.max(LANE * lanes.length + 4, 40);
  const t0 = Math.min(...rows.map(r => r.start));
  const t1 = Math.max(...rows.map(r => r.end), t0 + 1e-9);
  const sx = (t) => (t - t0) / (t1 - t0) * (W - 60) + 56;
  let s = svgOpen(h);
  lanes.forEach((lane, i) => {
    s += `<text x="2" y="${i * LANE + 12}" fill="#7b8699" font-size="10">${esc(span)} ${esc(lane)}</text>`;
  });
  rows.forEach(r => {
    const i = lanes.indexOf(r.lane);
    const x = sx(r.start), w = Math.max(1.5, sx(r.end) - x);
    s += `<rect x="${x}" y="${i * LANE + 3}" width="${w}" height="${LANE - 5}" `
      + `fill="${r.color}" fill-opacity="0.85"><title>${esc(r.title)}</title></rect>`;
  });
  return s + "</svg>";
}
const PALETTE = ["#6fb3ff","#69d58c","#e8c268","#c678dd","#56b6c2","#e06c75","#98c379","#d19a66"];
const hue = (s) => PALETTE[[...String(s)].reduce((a, c) => a + c.charCodeAt(0), 0) % PALETTE.length];

// ---- panels ----------------------------------------------------------
function card(k, v) { return `<div class="card"><div class="v">${v}</div><div class="k">${esc(k)}</div></div>`; }
function panel(title, body, wide) {
  return `<div class="panel${wide ? " wide" : ""}"><h2>${esc(title)}</h2>${body}</div>`;
}

// per-second sum of rate series; each series doubles its stride on its
// own, so bins are summed onto the coarsest stride among them
function rates(...list) {
  const stride = Math.max(...list.map(d => d.stride_ns));
  const out = [];
  list.forEach(d => d.values.forEach((v, i) => {
    const j = Math.floor(i * d.stride_ns / stride);
    out[j] = (out[j] || 0) + v;
  }));
  return Array.from(out, v => (v || 0) / (stride / 1e9));
}

function renderService(stats, traces, details) {
  $("wall").textContent = `wall ${fmt(stats.wall_s, 1)}s`;
  $("cards").innerHTML =
    card("submitted", fmt(stats.counters.submitted)) +
    card("cache hits", fmt(stats.counters.hits)) +
    card("coalesced", fmt(stats.counters.coalesced)) +
    card("completed", fmt(stats.counters.completed)) +
    card("rejected", fmt(stats.counters.rejected)) +
    card("failed", fmt(stats.counters.failed)) +
    card("cache hit ratio", fmt(100 * stats.cache.hit_ratio, 1) + "%") +
    card("queue depth", fmt(stats.gauges.queue_depth)) +
    card("peak depth", fmt(stats.gauges.peak_queue_depth)) +
    card("tenants", fmt(stats.gauges.tenants)) +
    card("workers", fmt(stats.gauges.workers));

  const tenants = Object.entries(stats.tenants);
  const tPeak = Math.max(1, ...tenants.map(([, tenant]) => tenant.submitted));
  const tenantRows = tenants.map(([name, tenant]) =>
    barRow(name, tenant.submitted, tPeak, hue(name))).join("");

  const stream = (traces.traces || [])
    .filter(t => t.worker !== null && t.engine_ms > 0)
    .map(t => ({
      lane: t.worker,
      start: t.start_ms + t.wall_ms - t.engine_ms,
      end: t.start_ms + t.wall_ms,
      color: hue(t.job.split("/")[0]),
      title: `${t.job} [${t.outcome}] ${fmt(t.engine_ms, 2)}ms engine`,
    }));

  const rows = (traces.traces || []).slice(0, 20).map(t =>
    `<tr class="trace" data-id="${esc(t.trace_id)}">`
    + `<td>${esc(t.trace_id.slice(0, 8))}</td><td>${esc(t.job)}</td>`
    + `<td>${esc(t.tenant)}</td><td class="${esc(t.outcome)}">${esc(t.outcome)}</td>`
    + `<td>${fmt(t.wall_ms, 3)}</td><td>${fmt(t.engine_ms, 3)}</td>`
    + `<td>${t.attempts}</td><td>${t.worker ?? "-"}</td></tr>`).join("");

  $("panels").innerHTML =
    panel("task stream (engine spans per service worker, wall ms)",
          taskStream(stream, "w"), true) +
    panel("queue depth", area(stats.series.queue_depth.values, "#e8c268", H, "depth")) +
    panel("busy workers (occupancy)",
          area(stats.series.busy_workers.values, "#69d58c", H, "busy")) +
    panel("answered: hits + coalesced + completed", area(
      rates(stats.series.hits, stats.series.coalesced, stats.series.completed),
      "#6fb3ff", H, "req", "/s")) +
    panel("rejected + failed", area(
      rates(stats.series.rejected, stats.series.failed), "#e06c75", H, "req", "/s")) +
    panel("per-tenant submitted", `<table>${tenantRows}</table>`) +
    panel("hit latency (log buckets)",
          histBars(stats.histograms.hit_latency_ms, "#6fb3ff")) +
    panel("miss latency (log buckets)",
          histBars(stats.histograms.miss_latency_ms, "#e8c268")) +
    panel("recent traces",
      `<table><tr><th>trace</th><th>job</th><th>tenant</th><th>outcome</th>`
      + `<th>wall ms</th><th>engine ms</th><th>att</th><th>wkr</th></tr>${rows}</table>`
      + `<div id="detail"></div>`, true);

  document.querySelectorAll("tr.trace").forEach(tr =>
    tr.addEventListener("click", () => showTrace(tr.dataset.id, details)));
}

function waterfall(doc) {
  const spans = doc.spans || [];
  if (!spans.length) return "(no spans)";
  const t0 = Math.min(...spans.map(s => s.start_ns));
  const t1 = Math.max(...spans.map(s => s.end_ns ?? s.start_ns), t0 + 1);
  const sx = (t) => (t - t0) / (t1 - t0) * (W - 180) + 170;
  let s = svgOpen(spans.length * LANE + 6);
  spans.forEach((sp, i) => {
    const x = sx(sp.start_ns), w = Math.max(1.5, sx(sp.end_ns ?? sp.start_ns) - x);
    const color = sp.status === "error" ? "#e06c75" : hue(sp.name);
    s += `<text x="2" y="${i * LANE + 12}" fill="#7b8699" font-size="10">`
      + `${esc(sp.name)}${sp.attrs.attempt ? " #" + sp.attrs.attempt : ""}</text>`
      + `<rect x="${x}" y="${i * LANE + 3}" width="${w}" height="${LANE - 5}" fill="${color}">`
      + `<title>${esc(sp.name)} ${fmt(sp.duration_ns / 1e6, 3)}ms [${esc(sp.status)}]</title></rect>`;
  });
  return s + "</svg>";
}

async function showTrace(id, details) {
  let doc = details && details[id];
  if (!doc && !window.SNAPSHOT) {
    try { doc = await (await fetch(`/v1/traces/${id}`)).json(); }
    catch (e) { $("detail").innerHTML = `<pre>fetch failed: ${esc(e)}</pre>`; return; }
  }
  if (!doc) { $("detail").innerHTML = "<pre>trace detail not in snapshot</pre>"; return; }
  $("detail").innerHTML =
    `<pre>${esc(doc.trace_id)} ${esc(doc.job)} tenant=${esc(doc.tenant)} `
    + `outcome=${esc(doc.outcome)} wall=${fmt(doc.wall_ms, 3)}ms`
    + `${doc.engine ? " (engine events captured: " + doc.engine.otherData.events + ")" : ""}</pre>`
    + waterfall(doc);
}

// ---- offline engine (Collector-only) snapshot ------------------------
function renderEngine(eng) {
  const m = eng.meta || {};
  $("wall").textContent = `simulated ${fmt(m.elapsed_ns / 1e6, 3)}ms`;
  $("cards").innerHTML =
    card("app", esc(m.app || "-")) + card("dataset", esc(m.dataset || "-")) +
    card("config", esc(m.config || "-")) + card("tasks", fmt(m.tasks)) +
    card("retired", fmt(m.retired)) + card("events", fmt(m.events)) +
    card("workers", fmt(m.workers));
  const stream = (eng.spans || []).map(r => ({
    lane: r[0], start: r[1] / 1e6, end: r[2] / 1e6, color: hue(r[0]),
    title: `worker ${r[0]}: ${r[3]} items, ${r[4]} retired`,
  }));
  const q = (eng.queue || []).map(p => p[1]);
  const occ = eng.occupancy || [];
  let panels =
    panel("task stream (simulated time)", taskStream(stream, "w"), true) +
    panel("queue depth (simulated time)", area(q, "#e8c268", H, "depth")) +
    panel("worker utilization", `<table>${occ.map(o =>
      barRow("w" + o[0], 100 * o[1], 100, "#69d58c")).join("")}</table>`);
  const ms = eng.metrics;
  if (ms && ms.series) {
    for (const name of Object.keys(ms.series)) {
      panels += panel(`metrics: ${name}`, area(ms.series[name].values, "#6fb3ff", 48, name));
    }
  }
  $("panels").innerHTML = panels;
}

// ---- main loop -------------------------------------------------------
async function poll() {
  try {
    const [stats, traces] = await Promise.all([
      (await fetch("/v1/stats")).json(),
      (await fetch("/v1/traces")).json(),
    ]);
    $("err").textContent = "";
    renderService(stats, traces, null);
  } catch (e) {
    $("err").textContent = `poll failed: ${e}`;
  }
}

if (window.SNAPSHOT) {
  $("mode").textContent = "static snapshot";
  if (window.SNAPSHOT.engine) renderEngine(window.SNAPSHOT.engine);
  else renderService(window.SNAPSHOT.stats,
                     window.SNAPSHOT.traces || {traces: []},
                     window.SNAPSHOT.details || {});
} else {
  $("mode").textContent = "live · polling 1s";
  poll();
  setInterval(poll, 1000);
}
</script>
</body>
</html>
"""
