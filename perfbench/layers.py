"""Per-layer metrics of the traced run and what each one should move.

Every time is seconds per CLI operation (the median over the traced
operations of one run); counts are per operation (``count/op``) or the
median per call (``count/call``). A change to one layer states beforehand
which of these should move; this table is the prediction the benchmark was
built with:

* ``moves`` - the end-to-end metric the layer's time feeds;
* ``on`` - the workloads whose blocking path runs the layer;
* ``same_on`` - the workloads on which a change to the layer should read as
  no change.
"""

from __future__ import annotations

UPSCALE = ("upscale-numeric", "upscale-surrogate")
ALL = UPSCALE + ("build-dataset",)

_SOLVER = dict(moves="command_s", on=("upscale-numeric", "build-dataset"),
               same_on=("upscale-surrogate",))
_RASTER = dict(moves="command_s", on=("upscale-surrogate", "build-dataset"),
               same_on=("upscale-numeric",))
_CLIP = dict(moves="command_s", on=UPSCALE, same_on=("build-dataset",))
_INFER = dict(moves="command_s", on=("upscale-surrogate",),
              same_on=("upscale-numeric", "build-dataset"))
_DATASET = dict(moves="command_s", on=("build-dataset",), same_on=UPSCALE)
_NONE = dict(moves=None, on=ALL, same_on=())


def _m(name, unit, better, group):
    return dict(name=name, unit=unit, better=better, **group)


PER_LAYER = [
    _m("homogenizer.clip_network.self_s", "s/op", "lower", _CLIP),
    _m("homogenizer.clip_network.calls", "count/op", "lower", _CLIP),
    _m("homogenizer.clip_network.kept_ratio", "ratio", "higher", _CLIP),
    _m("homogenizer.clip_network.kept", "count/call", "lower", _CLIP),
    _m("dfm_solver.discretize.self_s", "s/op", "lower", _SOLVER),
    _m("dfm_solver.discretize.calls", "count/op", "lower", _SOLVER),
    _m("dfm_solver.discretize.frac_elems", "count/call", "lower", _SOLVER),
    _m("dfm_solver.discretize.dofs", "count/call", "lower", _SOLVER),
    _m("dfm_solver.discretize.merged", "count/op", "lower", _SOLVER),
    _m("dfm_solver.discretize.dropped", "count/op", "lower", _SOLVER),
    _m("dfm_solver.solve_darcy.self_s", "s/op", "lower", _SOLVER),
    _m("dfm_solver.solve_darcy.calls", "count/op", "lower", _SOLVER),
    _m("homogenizer.anisotropy_tensor.self_s", "s/op", "lower", _SOLVER),
    _m("rasterizer.rasterize_block.self_s", "s/op", "lower", _RASTER),
    _m("rasterizer.rasterize_block.calls", "count/op", "lower", _RASTER),
    _m("geometry.supercover_cells.self_s", "s/op", "lower", _RASTER),
    _m("geometry.supercover_cells.calls", "count/op", "lower", _RASTER),
    _m("dataset_pipeline.preprocess.self_s", "s/op", "lower", _INFER),
    _m("dataset_pipeline.preprocess.calls", "count/op", "lower", _INFER),
    _m("surrogate.forward.self_s", "s/op", "lower", _INFER),
    _m("surrogate.forward.calls", "count/op", "lower", _INFER),
    _m("surrogate.forward.images_per_call", "images/call", "higher", _INFER),
    _m("bench.fine_model.self_s", "s/op", "lower", _CLIP),
    _m("homogenizer.upscale_domain.self_s", "s/op", "lower", _CLIP),
    _m("homogenizer.upscale_domain.projected", "count/op", "lower", _CLIP),
    _m("homogenizer.write_block_csv.self_s", "s/op", "lower", _CLIP),
    _m("random_field.save_tensor_field.self_s", "s/op", "lower", _CLIP),
    _m("random_field.sample_tensor_field.self_s", "s/op", "lower", _DATASET),
    _m("random_field.sample_tensor_field.calls", "count/op", "lower",
       _DATASET),
    _m("frac_geom.generate_dfn.self_s", "s/op", "lower", _DATASET),
    _m("frac_geom.generate_dfn.calls", "count/op", "lower", _DATASET),
    _m("frac_geom.generate_dfn.fractures", "count/call", "lower", _DATASET),
    _m("dataset_pipeline.generate_sample.self_s", "s/op", "lower", _DATASET),
    _m("dataset_pipeline.generate_dataset.self_s", "s/op", "lower",
       _DATASET),
    _m("dataset_pipeline.compute_stats.self_s", "s/op", "lower", _DATASET),
    _m("dataset_pipeline.shard_bytes", "B/op", "lower", _DATASET),
    # time inside the operation that no traced layer covers
    _m("cli.main.self_s", "s/op", "lower", _NONE),
    _m("trace.overhead_s", "s/op", "lower", _NONE),
    _m("trace.missing_spans", "count", "lower", _NONE),
]


def benchmark_entries() -> list:
    """The ``per_layer`` list of BENCHMARK.json."""
    return [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in PER_LAYER]
