//! CloverLeaf-style input decks.
//!
//! CloverLeaf and CleverLeaf are configured by a `clover.in` deck; this
//! module parses the same dialect so existing decks port directly:
//!
//! ```text
//! *clover
//!  state 1 density=0.125 energy=2.0
//!  state 2 density=1.0 energy=2.5 geometry=rectangle xmin=0.0 xmax=0.5 ymin=0.0 ymax=1.0
//!  x_cells=96
//!  y_cells=96
//!  xmin=0.0
//!  xmax=1.0
//!  ymin=0.0
//!  ymax=1.0
//!  max_levels=3
//!  end_time=0.2
//!  end_step=500
//! *endclover
//! ```
//!
//! State 1 is the ambient background (covers the whole domain); later
//! states paint rectangles over it, exactly as CloverLeaf's generator
//! does. Unknown keys are ignored with a warning list so real decks
//! (which carry visualisation frequencies etc.) still parse.

use rbamr_hydro::{MetadataMode, RegionInit};

/// A parsed deck.
#[derive(Clone, Debug, PartialEq)]
pub struct Deck {
    /// Physical domain extent.
    pub extent: (f64, f64),
    /// Coarse cells.
    pub cells: (i64, i64),
    /// Initial-condition regions (background first).
    pub regions: Vec<RegionInit>,
    /// Maximum AMR levels (default 1).
    pub max_levels: usize,
    /// Stop at this simulation time, if given.
    pub end_time: Option<f64>,
    /// Stop after this many steps, if given.
    pub end_step: Option<usize>,
    /// How ranks hold level metadata: `metadata_mode=replicated` (the
    /// default) or `metadata_mode=partitioned` (owned + ghosted views
    /// with digest-verified exchange).
    pub metadata_mode: MetadataMode,
    /// Seed for deterministic fault injection (`fault_seed=…`), if the
    /// run should be a chaos run.
    pub fault_seed: Option<u64>,
    /// Committed steps between recovery checkpoints
    /// (`checkpoint_interval=…`), if overriding the policy default.
    pub checkpoint_interval: Option<usize>,
    /// Rollback-and-retry budget (`max_retries=…`), if overriding the
    /// policy default.
    pub max_retries: Option<usize>,
    /// Fewest ranks the job may elastically shrink to after permanent
    /// rank losses (`min_ranks=…`); a loss below this floor fails fast
    /// with a typed `InsufficientRanks` on every survivor.
    pub min_ranks: Option<usize>,
    /// Keys the parser did not understand (ignored, reported).
    pub ignored: Vec<String>,
}

/// Parse errors.
#[derive(Clone, Debug, PartialEq)]
pub enum DeckError {
    /// The `*clover` block is missing.
    MissingBlock,
    /// A malformed line, with its content.
    BadLine(String),
    /// A bad value for a known key.
    BadValue(String, String),
    /// No states were defined.
    NoStates,
}

impl std::fmt::Display for DeckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeckError::MissingBlock => write!(f, "deck has no *clover ... *endclover block"),
            DeckError::BadLine(l) => write!(f, "malformed deck line: {l:?}"),
            DeckError::BadValue(k, v) => write!(f, "bad value for {k}: {v:?}"),
            DeckError::NoStates => write!(f, "deck defines no states"),
        }
    }
}

impl std::error::Error for DeckError {}

#[derive(Clone, Copy, Debug, Default)]
struct StateSpec {
    density: f64,
    energy: f64,
    xvel: f64,
    yvel: f64,
    rect: Option<(f64, f64, f64, f64)>,
}

/// Parse a deck from text.
///
/// # Errors
/// Returns a [`DeckError`] describing the first problem found, among
/// them [`DeckError::BadValue`] for a scalar out of range: fewer than
/// one cell or level, a negative `end_step`, or an empty or non-finite
/// domain extent.
pub fn parse_deck(text: &str) -> Result<Deck, DeckError> {
    let mut in_block = false;
    let mut saw_block = false;
    let mut states: Vec<(usize, StateSpec)> = Vec::new();
    let mut x_cells = 10i64;
    let mut y_cells = 10i64;
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (0.0f64, 1.0f64, 0.0f64, 1.0f64);
    let mut max_levels = 1usize;
    let mut end_time = None;
    let mut end_step = None;
    let mut metadata_mode = MetadataMode::default();
    let mut fault_seed = None;
    let mut checkpoint_interval = None;
    let mut max_retries = None;
    let mut min_ranks = None;
    let mut ignored = Vec::new();

    for raw in text.lines() {
        let line = raw.split('!').next().unwrap_or("").trim(); // '!' comments
        if line.is_empty() {
            continue;
        }
        match line.to_ascii_lowercase().as_str() {
            "*clover" => {
                in_block = true;
                saw_block = true;
                continue;
            }
            "*endclover" => {
                in_block = false;
                continue;
            }
            _ => {}
        }
        if !in_block {
            continue;
        }

        if let Some(rest) = line.strip_prefix("state ") {
            let mut parts = rest.split_whitespace();
            let idx: usize = parts
                .next()
                .ok_or_else(|| DeckError::BadLine(line.into()))?
                .parse()
                .map_err(|_| DeckError::BadLine(line.into()))?;
            let mut spec = StateSpec::default();
            let (mut rx0, mut rx1, mut ry0, mut ry1) = (None, None, None, None);
            for kv in parts {
                let (k, v) = kv.split_once('=').ok_or_else(|| DeckError::BadLine(line.into()))?;
                let fval = || v.parse::<f64>().map_err(|_| DeckError::BadValue(k.into(), v.into()));
                match k {
                    "density" => spec.density = fval()?,
                    "energy" => spec.energy = fval()?,
                    "xvel" => spec.xvel = fval()?,
                    "yvel" => spec.yvel = fval()?,
                    "xmin" => rx0 = Some(fval()?),
                    "xmax" => rx1 = Some(fval()?),
                    "ymin" => ry0 = Some(fval()?),
                    "ymax" => ry1 = Some(fval()?),
                    "geometry" => {
                        if v != "rectangle" {
                            return Err(DeckError::BadValue(k.into(), v.into()));
                        }
                    }
                    other => ignored.push(format!("state {idx}: {other}")),
                }
            }
            if let (Some(a), Some(b), Some(c), Some(d)) = (rx0, rx1, ry0, ry1) {
                spec.rect = Some((a, c, b, d));
            }
            states.push((idx, spec));
            continue;
        }

        // key=value scalars (allow several per line).
        for kv in line.split_whitespace() {
            let Some((k, v)) = kv.split_once('=') else {
                return Err(DeckError::BadLine(line.into()));
            };
            let fval = || v.parse::<f64>().map_err(|_| DeckError::BadValue(k.into(), v.into()));
            let at_least = |min: i64| match v.parse::<i64>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(DeckError::BadValue(k.into(), v.into())),
            };
            match k {
                "x_cells" => x_cells = at_least(1)?,
                "y_cells" => y_cells = at_least(1)?,
                "xmin" => xmin = fval()?,
                "xmax" => xmax = fval()?,
                "ymin" => ymin = fval()?,
                "ymax" => ymax = fval()?,
                "max_levels" => max_levels = at_least(1)? as usize,
                "end_time" => end_time = Some(fval()?),
                "end_step" => end_step = Some(at_least(0)? as usize),
                "metadata_mode" => {
                    metadata_mode = match v.to_ascii_lowercase().as_str() {
                        "replicated" => MetadataMode::Replicated,
                        "partitioned" => MetadataMode::Partitioned,
                        _ => return Err(DeckError::BadValue(k.into(), v.into())),
                    }
                }
                "fault_seed" => {
                    fault_seed =
                        Some(v.parse().map_err(|_| DeckError::BadValue(k.into(), v.into()))?);
                }
                "checkpoint_interval" => {
                    checkpoint_interval =
                        Some(v.parse().map_err(|_| DeckError::BadValue(k.into(), v.into()))?);
                }
                "max_retries" => {
                    max_retries =
                        Some(v.parse().map_err(|_| DeckError::BadValue(k.into(), v.into()))?);
                }
                "min_ranks" => {
                    min_ranks =
                        Some(v.parse().map_err(|_| DeckError::BadValue(k.into(), v.into()))?);
                }
                other => ignored.push(other.to_owned()),
            }
        }
    }

    if !saw_block {
        return Err(DeckError::MissingBlock);
    }
    if states.is_empty() {
        return Err(DeckError::NoStates);
    }
    states.sort_by_key(|(i, _)| *i);

    let extent = (xmax - xmin, ymax - ymin);
    for (axis, lo, hi, len) in [("x", xmin, xmax, extent.0), ("y", ymin, ymax, extent.1)] {
        if !(len > 0.0 && len.is_finite()) {
            return Err(DeckError::BadValue(format!("{axis}min/{axis}max"), format!("{lo}/{hi}")));
        }
    }
    let mut regions = Vec::new();
    for (idx, s) in &states {
        let rect = if *idx == 1 {
            // State 1 is the ambient background over the whole domain.
            (0.0, 0.0, extent.0, extent.1)
        } else {
            let (a, c, b, d) = s.rect.ok_or(DeckError::BadLine(format!(
                "state {idx} needs geometry=rectangle with xmin/xmax/ymin/ymax"
            )))?;
            (a - xmin, c - ymin, b - xmin, d - ymin)
        };
        regions.push(RegionInit {
            rect,
            density: s.density,
            energy: s.energy,
            xvel: s.xvel,
            yvel: s.yvel,
        });
    }

    Ok(Deck {
        extent,
        cells: (x_cells, y_cells),
        regions,
        max_levels,
        end_time,
        end_step,
        metadata_mode,
        fault_seed,
        checkpoint_interval,
        max_retries,
        min_ranks,
        ignored,
    })
}

/// The canonical Sod deck, as shipped with CloverLeaf-family codes.
pub fn sod_deck() -> &'static str {
    r"
*clover
 state 1 density=0.125 energy=2.0
 state 2 density=1.0 energy=2.5 geometry=rectangle xmin=0.0 xmax=0.5 ymin=0.0 ymax=1.0

 x_cells=96
 y_cells=96

 xmin=0.0
 xmax=1.0
 ymin=0.0
 ymax=1.0

 max_levels=3
 end_time=0.2
*endclover
"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sod_deck_parses() {
        let deck = parse_deck(sod_deck()).expect("sod deck");
        assert_eq!(deck.cells, (96, 96));
        assert_eq!(deck.extent, (1.0, 1.0));
        assert_eq!(deck.max_levels, 3);
        assert_eq!(deck.end_time, Some(0.2));
        assert_eq!(deck.end_step, None);
        assert_eq!(deck.regions.len(), 2);
        // Background (state 1) covers the domain.
        assert_eq!(deck.regions[0].rect, (0.0, 0.0, 1.0, 1.0));
        assert_eq!(deck.regions[0].density, 0.125);
        // State 2 paints the left half.
        assert_eq!(deck.regions[1].rect, (0.0, 0.0, 0.5, 1.0));
        assert_eq!(deck.regions[1].density, 1.0);
        assert!(deck.ignored.is_empty());
    }

    #[test]
    fn comments_and_unknown_keys_are_tolerated() {
        let text = r"
*clover
 state 1 density=1.0 energy=1.0 ! ambient
 visit_frequency=10
 x_cells=8 y_cells=8
 profiler_on=1
*endclover
";
        let deck = parse_deck(text).expect("deck");
        assert_eq!(deck.cells, (8, 8));
        assert_eq!(deck.ignored, vec!["visit_frequency", "profiler_on"]);
    }

    #[test]
    fn metadata_mode_key_parses_and_rejects_garbage() {
        let text = |mode: &str| {
            format!(
                "*clover\n state 1 density=1.0 energy=1.0\n x_cells=8 y_cells=8\n \
                 metadata_mode={mode}\n*endclover\n"
            )
        };
        assert_eq!(
            parse_deck(&text("partitioned")).expect("deck").metadata_mode,
            MetadataMode::Partitioned
        );
        assert_eq!(
            parse_deck(&text("replicated")).expect("deck").metadata_mode,
            MetadataMode::Replicated
        );
        // Absent defaults to replicated.
        assert_eq!(parse_deck(sod_deck()).expect("deck").metadata_mode, MetadataMode::Replicated);
        assert_eq!(
            parse_deck(&text("sharded")),
            Err(DeckError::BadValue("metadata_mode".into(), "sharded".into()))
        );
    }

    #[test]
    fn out_of_range_scalars_are_rejected() {
        for (kv, key) in [
            ("max_levels=-1", "max_levels"),
            ("max_levels=0", "max_levels"),
            ("end_step=-1", "end_step"),
            ("x_cells=0", "x_cells"),
            ("y_cells=0", "y_cells"),
            ("x_cells=-8", "x_cells"),
            ("xmax=0.0", "xmin/xmax"),
            ("xmin=2.0", "xmin/xmax"),
            ("ymax=-1.0", "ymin/ymax"),
            ("ymin=1.0", "ymin/ymax"),
            ("xmax=nan", "xmin/xmax"),
        ] {
            let text = format!("*clover\n state 1 density=1.0 energy=1.0\n {kv}\n*endclover\n");
            match parse_deck(&text) {
                Err(DeckError::BadValue(k, _)) if k == key => {}
                other => panic!("{kv}: expected a bad {key}, got {other:?}"),
            }
        }
    }

    #[test]
    fn resilience_keys_parse_and_default_to_none() {
        let text = "*clover\n state 1 density=1.0 energy=1.0\n x_cells=8 y_cells=8\n \
                    fault_seed=42 checkpoint_interval=5 max_retries=3 min_ranks=2\n*endclover\n";
        let deck = parse_deck(text).expect("deck");
        assert_eq!(deck.fault_seed, Some(42));
        assert_eq!(deck.checkpoint_interval, Some(5));
        assert_eq!(deck.max_retries, Some(3));
        assert_eq!(deck.min_ranks, Some(2));
        assert!(deck.ignored.is_empty());

        let plain = parse_deck(sod_deck()).expect("deck");
        assert_eq!(plain.fault_seed, None);
        assert_eq!(plain.checkpoint_interval, None);
        assert_eq!(plain.max_retries, None);
        assert_eq!(plain.min_ranks, None);

        assert_eq!(
            parse_deck(
                "*clover\n state 1 density=1 energy=1\n x_cells=8 y_cells=8\n \
                 fault_seed=banana\n*endclover"
            ),
            Err(DeckError::BadValue("fault_seed".into(), "banana".into()))
        );
    }

    #[test]
    fn offset_domains_shift_regions_to_the_origin() {
        let text = r"
*clover
 state 1 density=1.0 energy=1.0
 state 2 density=2.0 energy=2.0 geometry=rectangle xmin=3.0 xmax=4.0 ymin=2.0 ymax=3.0
 xmin=2.0 xmax=6.0 ymin=2.0 ymax=4.0
 x_cells=16 y_cells=8
*endclover
";
        let deck = parse_deck(text).expect("deck");
        assert_eq!(deck.extent, (4.0, 2.0));
        assert_eq!(deck.regions[1].rect, (1.0, 0.0, 2.0, 1.0));
    }

    #[test]
    fn velocities_parse() {
        let text = r"
*clover
 state 1 density=1.0 energy=1.0 xvel=2.0 yvel=-1.0
 x_cells=4 y_cells=4
*endclover
";
        let deck = parse_deck(text).expect("deck");
        assert_eq!(deck.regions[0].xvel, 2.0);
        assert_eq!(deck.regions[0].yvel, -1.0);
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse_deck("x_cells=8"), Err(DeckError::MissingBlock));
        assert_eq!(parse_deck("*clover\n x_cells=8\n*endclover"), Err(DeckError::NoStates));
        assert!(matches!(
            parse_deck("*clover\n state 1 density=abc\n*endclover"),
            Err(DeckError::BadValue(_, _))
        ));
        assert!(matches!(
            parse_deck("*clover\n state 1 density=1 energy=1\n gibberish line\n*endclover"),
            Err(DeckError::BadLine(_))
        ));
        // Non-background state without geometry.
        assert!(matches!(
            parse_deck(
                "*clover\n state 1 density=1 energy=1\n state 2 density=2 energy=2\n*endclover"
            ),
            Err(DeckError::BadLine(_))
        ));
    }

    #[test]
    fn a_deck_drives_a_real_simulation() {
        use rbamr_hydro::{HydroConfig, HydroSim, Placement};
        use rbamr_perfmodel::{Clock, Machine};
        let mut deck = parse_deck(sod_deck()).expect("deck");
        deck.cells = (24, 24); // shrink for the test
        deck.max_levels = 2;
        let mut sim = HydroSim::new(
            Machine::ipa_cpu_node(),
            Placement::Host,
            Clock::new(),
            deck.extent,
            deck.cells,
            deck.max_levels,
            2,
            HydroConfig::default(),
            deck.regions.clone(),
            0,
            1,
        );
        sim.initialize(None);
        let stats = sim.run_steps(5, None);
        assert!(stats.time > 0.0);
        assert_eq!(sim.hierarchy().num_levels(), 2);
    }
}
