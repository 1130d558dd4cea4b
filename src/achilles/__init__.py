"""Counter-example boosting for local robustness checks of ReLU networks.

The toolkit selects low-margin seed inputs, runs a cheap greedy
counter-example search around them, and falls back to a complete
interval-propagation branch-and-bound verifier; a campaign harness
compares seed-selection and pre-search modes, and a gradient attack
demonstrates the same seed boost for adversarial-example generation.
"""

from .attacks import (
    AttackCampaignResult,
    AttackConfig,
    AttackResult,
    attack,
    export_seed_list,
    fgsm_step,
    run_attack_campaign,
)
from .greedy import GreedyConfig, SearchOutcome, gen_neighbors, greedy_search
from .harness import (
    CampaignReport,
    CampaignSpec,
    Mode,
    ReportFormatError,
    RunRecord,
    audit_report,
    report_digest,
    report_read,
    report_write,
    run_campaign,
    run_query,
)
from .nn import (
    Network,
    NetworkFormatError,
    ball_region,
    classify,
    classify_batch,
    format_float,
    format_network,
    forward_batch,
    gradient,
    lipschitz_bound,
    load_network,
    margin,
    margin_batch,
    parse_network,
    perturbation_region,
    random_network,
    save_network,
    top_gap,
)
from .seeding import (
    SeedSearchExhausted,
    SeedingConfig,
    ThresholdState,
    compute_threshold,
    draw_sample_set,
    generate_seed,
    make_threshold_state,
    random_sample,
    select_lowest_margin,
)
from .verifier import (
    GridOutcome,
    GridResult,
    Verdict,
    VerdictKind,
    VerificationQuery,
    check_witness,
    grid_oracle,
    interval_bounds,
    verify_local_robustness,
)

__version__ = "0.1.0"
