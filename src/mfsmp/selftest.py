"""Self-verification suites mirroring the package's acceptance criteria.

Every suite returns a CheckReport whose residuals carry the actual acceptance
tolerances; the runner collects them into one deterministic report dict (no
timestamps, stable ordering) so consecutive runs are byte-identical.
"""

import json

import numpy as np

from . import __version__
from .adjoint import (closed_form_costate, linearize, propagate, solve_adjoint,
                      solve_linear_forward, variation_of_constants)
from .errors import ConfigError
from .forward import simulate
from .instances import (e1_problem, random_control, random_lq, random_prodcons,
                        random_spike, smooth_nonlinear)
from .optimize import UNRESOLVED_ULPS, OptimizerOptions, brute_force, optimize
from .problem import validate_spec
from .prodcons import comparison_rows, plot_data_csv, replica
from .report import CheckReport
from .smp import (adjoint_gradient, certify_gradient, duality_residual, gradient_consistency,
                  necessary_check, rate_ratios)
from .tree import AdaptedProcess, NoiseModel, validate_noise

KNOWN_FAULTS = ("grad-sign", "noise-mean")


def suite_noise(trials=None, fault=None) -> CheckReport:
    report = CheckReport("noise-moments")
    models = [
        ("binary d=1 h=1", NoiseModel.binary(1, 1.0)),
        ("binary d=2 h=0.5", NoiseModel.binary(2, 0.5)),
        ("trinomial d=1 h=0.5", NoiseModel.trinomial(1, 0.5, 0.25)),
        ("trinomial d=2 h=0.4", NoiseModel.trinomial(2, 0.4, 0.2)),
    ]
    if fault == "noise-mean":
        broken = NoiseModel.binary(1, 1.0)
        broken = NoiseModel(1, 1.0, broken.values + 1e-3, broken.probs, kind="custom")
        models.append(("binary d=1 shifted (injected fault)", broken))
    for label, model in models:
        sub = validate_noise(model, tol=1e-14)
        for res in sub.residuals:
            report.add(f"{label}: {res.label}", res.value, res.tol)
    return report


def _duality_instance(seed):
    spec = random_lq(seed) if seed % 3 else random_prodcons(seed)
    tree = spec.build_tree()
    u = random_control(spec, tree, 10_000 + seed)
    _, traj, adj = adjoint_gradient(spec, tree, u, return_all=True)
    spike = random_spike(spec, tree, u, 20_000 + seed, 0.05)
    return spec.family or "custom", duality_residual(spec, tree, traj, adj, u, spike)


def suite_duality(trials=50, fault=None) -> CheckReport:
    report = CheckReport("duality-identity")
    rows = [_duality_instance(seed) for seed in range(trials or 50)]
    for i, (family, res) in enumerate(rows):
        report.add(f"duality residual #{i} ({family})", res, 1e-10)
    return report


def gradient_instance(seed):
    """Problem, tree and control of gradient-suite instance `seed`."""
    if seed % 4 == 3:
        spec = random_prodcons(seed, steps_max=3)
    elif seed % 4 == 2:
        spec = random_lq(seed, steps_max=4, d_max=2)
    else:
        spec = random_lq(seed, steps_max=3)
    tree = spec.build_tree()
    return spec, tree, random_control(spec, tree, 30_000 + seed)


def _gradient(spec, tree, u, fault):
    """The adjoint gradient, negated under the `grad-sign` fault."""
    g = adjoint_gradient(spec, tree, u)
    return AdaptedProcess(tree, 0, [-g.at(k) for k in g.levels()]) if fault == "grad-sign" else g


def _gradient_instance(seed, fault):
    spec, tree, u = gradient_instance(seed)
    worst, _, _ = gradient_consistency(spec, tree, u, g=_gradient(spec, tree, u, fault))
    return spec.family or "custom", worst


def suite_gradient(trials=20, fault=None) -> CheckReport:
    report = CheckReport("gradient-consistency")
    rows = [_gradient_instance(seed, fault) for seed in range(trials or 20)]
    for i, (family, err) in enumerate(rows):
        report.add(f"max relative gradient error #{i} ({family})", err, 1e-6)
    return report


def _certificate_instance(seed, fault):
    spec, tree, u = gradient_instance(seed)
    return spec.family or "custom", certify_gradient(spec, tree, u, _gradient(spec, tree, u, fault))


def suite_certificate(trials=20, fault=None) -> CheckReport:
    report = CheckReport("gradient-certificate")
    rows = [_certificate_instance(seed, fault) for seed in range(trials or 20)]
    for i, (family, cert) in enumerate(rows):
        for res in cert.residuals:
            report.add(f"#{i} ({family}) {res.label}", res.value, res.tol, res.level, res.node)
    return report


def _operator_instance(seed):
    rng = np.random.default_rng(40_000 + seed)
    mean_field = bool(seed % 2)
    spec = random_lq(seed, steps_max=3, mean_field=mean_field)
    tree = spec.build_tree()
    u = random_control(spec, tree, 50_000 + seed)
    traj = simulate(spec, tree, u)
    steps, terminal = linearize(spec, tree, traj, u)
    coefficients = steps.__getitem__
    n_steps = tree.grid.n_steps

    z0 = rng.uniform(-1.0, 1.0, (1, spec.n))
    full = propagate(coefficients, tree, z0, 0, n_steps + 1)
    semi = 0.0
    for k in range(1, n_steps + 1):
        split = propagate(coefficients, tree, propagate(coefficients, tree, z0, 0, k), k, n_steps + 1)
        semi = max(semi, float(np.max(np.abs(full - split))))

    forcing = ([rng.uniform(-0.5, 0.5, (tree.size(k), spec.n)) for k in range(n_steps + 1)],
               [rng.uniform(-0.5, 0.5, (tree.size(k), spec.d, spec.n))
                for k in range(n_steps + 1)])
    z_init = rng.uniform(-1.0, 1.0, spec.n)
    direct = solve_linear_forward(coefficients, tree, z_init, *forcing)
    rep = variation_of_constants(coefficients, tree, z_init, *forcing)
    rep_res = max(float(np.max(np.abs(direct.at(k) - rep.at(k))))
                  for k in range(n_steps + 2))

    adj = solve_adjoint(coefficients, tree, terminal)
    closed = closed_form_costate(coefficients, tree, terminal)
    closed_res = max(float(np.max(np.abs(adj.p.at(k) - closed.at(k))))
                     for k in range(n_steps + 2))
    return mean_field, semi, rep_res, closed_res


def suite_operator(trials=8, fault=None) -> CheckReport:
    report = CheckReport("transition-operator")
    rows = [_operator_instance(seed) for seed in range(trials or 8)]
    for i, (mean_field, semi, rep_res, closed_res) in enumerate(rows):
        report.add(f"semigroup composition #{i}", semi, 1e-12)
        report.add(f"representation vs recursion #{i}", rep_res, 1e-12)
        report.add(f"closed-form costate vs backward #{i}" + (" (mean-field)" if mean_field else ""),
                   closed_res, 1e-10)
    return report


def suite_rates(trials=None, fault=None) -> CheckReport:
    report = CheckReport("expansion-rates")
    for seed in (4, 8):
        spec = random_lq(seed, steps_max=3)
        tree = spec.build_tree()
        u = random_control(spec, tree, 60_000 + seed)
        spike = random_spike(spec, tree, u, 70_000 + seed, 1e-1, max_scale=1e-1, step=0)
        rates = rate_ratios(spec, tree, u, spike)
        for eps, r2 in zip(rates["eps"], rates["ratio2"]):
            report.add(f"linear-dynamics ratio2 @eps={eps:g} (seed {seed})", r2, 1e-20)
        report.add(f"linear-dynamics ratio1 bounded (seed {seed})",
                   rates["ratio1"][-1], 2.0 * rates["ratio1"][0] + 1e-30)
    for seed in (1, 3):
        spec = smooth_nonlinear(seed)
        tree = spec.build_tree()
        u = random_control(spec, tree, 80_000 + seed)
        spike = random_spike(spec, tree, u, 90_000 + seed, 1e-1, max_scale=1e-1, step=0)
        rates = rate_ratios(spec, tree, u, spike)
        r2 = rates["ratio2"]
        report.add(f"smooth ratio2 decade drop 1e-1 -> 1e-2 (seed {seed})",
                   r2[1], 0.1 * r2[0])
        report.add(f"smooth ratio2 decade drop 1e-2 -> 1e-3 (seed {seed})",
                   r2[2], 0.1 * r2[1])
        report.add(f"smooth ratio1 bounded (seed {seed})",
                   rates["ratio1"][-1], 2.0 * rates["ratio1"][0] + 1e-30)
    return report


def _optimizer_instance(seed):
    spec = random_lq(seed, n_max=2, r_max=1, d_max=1, steps_max=1, convex=True)
    tree = spec.build_tree()
    result = optimize(spec, tree, options=OptimizerOptions(seed=seed, grad_tol=1e-9))
    u_star, j_star = brute_force(spec, tree, 101)
    ncheck = necessary_check(spec, result.u, adjoint_gradient(spec, tree, result.u), tol=1e-6)
    worst_dir = max(res.value for res in ncheck.residuals)
    # J may rise by the UNRESOLVED_ULPS ulps within which the optimizer judges a trial by slope
    js = [row[0] for row in result.history]
    monotone = all(b - a <= UNRESOLVED_ULPS * np.spacing(abs(a)) for a, b in zip(js, js[1:]))
    return abs(result.cost - j_star), worst_dir, monotone


def suite_optimizer(trials=5, fault=None) -> CheckReport:
    report = CheckReport("optimizer-vs-oracle")
    rows = [_optimizer_instance(seed) for seed in range(trials or 5)]
    for i, (gap, worst_dir, monotone) in enumerate(rows):
        report.add(f"|J(optimize) - J(grid oracle)| #{i}", gap, 1e-4)
        report.add(f"first-order condition residual #{i}", worst_dir, 1e-6)
        report.add(f"descent history monotone #{i}", 0.0 if monotone else 1.0, 0.0)
    return report


def suite_prodcons(trials=None, fault=None) -> CheckReport:
    report = CheckReport("prodcons-reproduction")
    rep = replica(0.5, 0.5, 5)
    report.add("|p(6h) - 1|", abs(rep.p[6] - 1.0), 0.0)
    report.add("|p(5h) - 0.75|", abs(rep.p[5] - 0.75), 0.0)
    report.add("|p(4h) - 0.5625|", abs(rep.p[4] - 0.5625), 0.0)
    report.add("|q(5h)|", abs(rep.q[5]), 0.0)
    report.add("|q(4h)|", abs(rep.q[4]), 0.0)
    report.add("|v(5h) - 1.414214|", abs(rep.v[5] - 1.414214), 1e-6)
    report.add("|v(4h) - 1.632993|", abs(rep.v[4] - 1.632993), 1e-6)
    direct = (rep.h * rep.p[1:]) ** (-rep.delta_util)
    report.add("consumption rule direct substitution",
               float(np.max(np.abs(rep.v - direct))), 1e-15)
    csv_text = plot_data_csv(rep)
    lines = csv_text.strip().split("\n")
    report.add("plot rows == N+1", abs(len(lines) - 1 - 6), 0.0)
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    report.add("plot rows strictly increasing in t",
               0.0 if all(b > a for a, b in zip(ts, ts[1:])) else 1.0, 0.0)
    _, _, rows = comparison_rows(0.5, 0.5, 5)
    n_disagree = sum(1 for row in rows if not row["p_agree"])
    report.add("replica vs general-solver costate differences (informational)",
               float(n_disagree), np.inf)
    report.note("replica follows the reference recursion; the general solver uses "
                "the linearized drift, and the two coincide only at unit step size")
    return report


def suite_validation(trials=6, fault=None) -> CheckReport:
    report = CheckReport("spec-validation")
    seeds = list(range(trials or 6))
    # smooth_nonlinear's evaluators are written in code, outside the config families
    for seed, spec in zip(seeds * 2, [random_lq(s) if s % 2 else random_prodcons(s) for s in seeds]
                          + [smooth_nonlinear(s) for s in seeds]):
        sub = validate_spec(spec, tol=1e-6)
        worst = max((res.value for res in sub.residuals), default=0.0)
        family = spec.family or "smooth_nonlinear"
        report.add(f"derivative/shape residual #{seed} ({family})", worst, 1e-6)
    spec = e1_problem()
    sub = validate_spec(spec)
    report.add("benchmark instance validation", 0.0 if sub.passed else 1.0, 0.0)
    return report


SUITES = {
    "noise": suite_noise,
    "duality": suite_duality,
    "gradient": suite_gradient,
    "certificate": suite_certificate,
    "operator": suite_operator,
    "rates": suite_rates,
    "optimizer": suite_optimizer,
    "prodcons": suite_prodcons,
    "validation": suite_validation,
}


def check_options(suite=None, trials=None, inject_fault=None):
    """A ConfigError unless `run_selftest` accepts these options."""
    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        raise ConfigError(f"unknown fault {inject_fault!r}; known: {', '.join(KNOWN_FAULTS)}")
    if trials is not None and trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if suite is not None and suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")


def run_selftest(suite=None, trials=None, inject_fault=None):
    """Run the verification suites and assemble a deterministic report dict."""
    check_options(suite, trials, inject_fault)
    names = [suite] if suite else list(SUITES)
    reports = {}
    for name in names:
        reports[name] = SUITES[name](trials=trials, fault=inject_fault)
    report = {
        "version": __version__,
        "options": {"suite": suite, "trials": trials, "inject_fault": inject_fault},
        "suites": {name: rep.to_dict() for name, rep in reports.items()},
        "pass": all(rep.passed for rep in reports.values()),
    }
    return report, reports


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
