//! Minimal flag parser: `--name value` pairs, boolean switches, and
//! positional arguments, with typed accessors and unknown-flag rejection.
//!
//! Switches are listed without dashes (`"auto"` matches `--auto`) except
//! short switches, which are listed verbatim (`"-v"` matches `-v`); query
//! both with the spelling used in the list ([`Args::has`]).

use std::collections::HashMap;
use std::time::Duration;

#[derive(Debug)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Parses `argv` given the set of value-taking flags (`takes_value`) and
/// boolean switches. `arity` maps a flag to how many values it consumes
/// (default 1 for value flags).
pub fn parse(
    argv: &[String],
    value_flags: &[(&str, usize)],
    switch_flags: &[&str],
) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut flags: HashMap<String, Vec<String>> = HashMap::new();
    let mut switches: Vec<String> = Vec::new();
    // Repeating a flag is rejected rather than silently last-wins: a
    // command line with `--threads 2 ... --threads 8` is almost always an
    // editing accident, and which value applied was previously invisible.
    let seen = |switches: &[String], flags: &HashMap<String, Vec<String>>, name: &str| {
        if switches.iter().any(|s| s == name) || flags.contains_key(name) {
            Err(format!("--{name} given more than once"))
        } else {
            Ok(())
        }
    };
    let mut i = 0;
    while i < argv.len() {
        let tok = &argv[i];
        // Short switches (e.g. `-v`) are listed with their dash; anything
        // else starting with a single dash stays positional for
        // compatibility (negative numbers, `-`-prefixed paths).
        if !tok.starts_with("--") && switch_flags.contains(&tok.as_str()) {
            if switches.contains(tok) {
                return Err(format!("{tok} given more than once"));
            }
            switches.push(tok.clone());
            i += 1;
            continue;
        }
        if let Some(name) = tok.strip_prefix("--") {
            // `--name=value`: switches accept an optional inline value
            // (`--progress=0.5` is both the switch and its setting);
            // single-value flags accept it as an alternative spelling.
            if let Some((name, value)) = name.split_once('=') {
                if switch_flags.contains(&name) {
                    seen(&switches, &flags, name)?;
                    switches.push(name.to_string());
                    flags.insert(name.to_string(), vec![value.to_string()]);
                    i += 1;
                    continue;
                }
                match value_flags.iter().find(|(f, _)| *f == name) {
                    Some(&(_, 1)) => {
                        seen(&switches, &flags, name)?;
                        flags.insert(name.to_string(), vec![value.to_string()]);
                        i += 1;
                        continue;
                    }
                    Some(&(_, arity)) => {
                        return Err(format!(
                            "--{name} expects {arity} values; --{name}=... takes only one"
                        ));
                    }
                    None => return Err(format!("unknown flag --{name}")),
                }
            }
            if switch_flags.contains(&name) {
                seen(&switches, &flags, name)?;
                switches.push(name.to_string());
                i += 1;
                continue;
            }
            let Some(&(_, arity)) = value_flags.iter().find(|(f, _)| *f == name) else {
                return Err(format!("unknown flag --{name}"));
            };
            seen(&switches, &flags, name)?;
            let mut values = Vec::with_capacity(arity);
            for k in 0..arity {
                let Some(v) = argv.get(i + 1 + k) else {
                    return Err(format!("--{name} expects {arity} value(s)"));
                };
                values.push(v.clone());
            }
            flags.insert(name.to_string(), values);
            i += 1 + arity;
        } else {
            positional.push(tok.clone());
            i += 1;
        }
    }
    Ok(Args {
        positional,
        flags,
        switches,
    })
}

impl Args {
    pub fn get_f64(&self, name: &str) -> Result<Option<f64>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v[0]
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("--{name}: {:?} is not a number", v[0])),
        }
    }

    pub fn get_usize(&self, name: &str) -> Result<Option<usize>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v[0]
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("--{name}: {:?} is not an integer", v[0])),
        }
    }

    pub fn get_u64(&self, name: &str) -> Result<Option<u64>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v[0]
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("--{name}: {:?} is not an integer", v[0])),
        }
    }

    pub fn get_pair_f64(&self, name: &str) -> Result<Option<(f64, f64)>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => {
                let a = v[0]
                    .parse::<f64>()
                    .map_err(|_| format!("--{name}: {:?} is not a number", v[0]))?;
                let b = v[1]
                    .parse::<f64>()
                    .map_err(|_| format!("--{name}: {:?} is not a number", v[1]))?;
                Ok(Some((a, b)))
            }
        }
    }

    /// A number of seconds that a [`Duration`] holds, at least a
    /// nanosecond unless `zero_ok`. Anything else (negative, not finite,
    /// or past `Duration::MAX`, about 1.8e19 s) is an error, not a panic.
    pub fn get_secs(&self, name: &str, zero_ok: bool) -> Result<Option<Duration>, String> {
        let Some(secs) = self.get_f64(name)? else {
            return Ok(None);
        };
        match Duration::try_from_secs_f64(secs) {
            Ok(d) if zero_ok || !d.is_zero() => Ok(Some(d)),
            _ => Err(format!(
                "--{name} expects a number of seconds from {} to 1.8e19, got {secs}",
                if zero_ok { "0" } else { "1e-9" }
            )),
        }
    }

    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|v| v[0].as_str())
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(
            &argv(&["file.tsv", "--eps", "0.01", "--auto"]),
            &[("eps", 1)],
            &["auto"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["file.tsv"]);
        assert_eq!(a.get_f64("eps").unwrap(), Some(0.01));
        assert!(a.has("auto"));
        assert!(!a.has("names"));
        assert_eq!(a.get_f64("missing").unwrap(), None);
    }

    #[test]
    fn short_switches_and_string_flags() {
        let a = parse(
            &argv(&["f.tsv", "-vv", "--report-json", "out.json"]),
            &[("report-json", 1)],
            &["-v", "-vv"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["f.tsv"]);
        assert!(a.has("-vv"));
        assert!(!a.has("-v"));
        assert_eq!(a.get_str("report-json"), Some("out.json"));
        // unlisted single-dash tokens stay positional
        let a = parse(&argv(&["-1", "x"]), &[], &["-v"]).unwrap();
        assert_eq!(a.positional, vec!["-1", "x"]);
    }

    #[test]
    fn multi_value_flags() {
        let a = parse(&argv(&["--merge", "0.2", "0.1"]), &[("merge", 2)], &[]).unwrap();
        assert_eq!(a.get_pair_f64("merge").unwrap(), Some((0.2, 0.1)));
    }

    #[test]
    fn equals_spelling_for_value_flags_and_switches() {
        // value flag via `=`
        let a = parse(&argv(&["--eps=0.02"]), &[("eps", 1)], &[]).unwrap();
        assert_eq!(a.get_f64("eps").unwrap(), Some(0.02));
        // switch with optional inline value: both `has` and the value work
        let a = parse(&argv(&["--progress=0.5"]), &[], &["progress"]).unwrap();
        assert!(a.has("progress"));
        assert_eq!(a.get_f64("progress").unwrap(), Some(0.5));
        // bare switch still has no value
        let a = parse(&argv(&["--progress"]), &[], &["progress"]).unwrap();
        assert!(a.has("progress"));
        assert_eq!(a.get_f64("progress").unwrap(), None);
        // `=` on a multi-value flag is rejected
        let e = parse(&argv(&["--merge=0.2"]), &[("merge", 2)], &[]).unwrap_err();
        assert!(e.contains("--merge"), "{e}");
        // unknown flag with `=` is rejected by its name
        let e = parse(&argv(&["--bogus=1"]), &[("eps", 1)], &[]).unwrap_err();
        assert!(e.contains("--bogus"), "{e}");
    }

    #[test]
    fn duplicate_flags_rejected() {
        // value flag repeated
        let e = parse(
            &argv(&["--threads", "2", "--threads", "8"]),
            &[("threads", 1)],
            &[],
        )
        .unwrap_err();
        assert!(
            e.contains("--threads") && e.contains("more than once"),
            "{e}"
        );
        // mixed spellings of the same flag
        let e = parse(&argv(&["--eps=0.01", "--eps", "0.02"]), &[("eps", 1)], &[]).unwrap_err();
        assert!(e.contains("--eps"), "{e}");
        // long switch repeated
        let e = parse(&argv(&["--auto", "--auto"]), &[], &["auto"]).unwrap_err();
        assert!(e.contains("--auto"), "{e}");
        // switch-with-inline-value repeated as bare switch
        let e = parse(&argv(&["--progress=0.5", "--progress"]), &[], &["progress"]).unwrap_err();
        assert!(e.contains("--progress"), "{e}");
        // short switch repeated
        let e = parse(&argv(&["-v", "-v"]), &[], &["-v"]).unwrap_err();
        assert!(e.contains("-v"), "{e}");
        // multi-value flag repeated
        let e = parse(
            &argv(&["--merge", "0.2", "0.1", "--merge", "0.3", "0.1"]),
            &[("merge", 2)],
            &[],
        )
        .unwrap_err();
        assert!(e.contains("--merge"), "{e}");
        // distinct short switches still coexist
        let a = parse(&argv(&["-v", "-vv"]), &[], &["-v", "-vv"]).unwrap();
        assert!(a.has("-v") && a.has("-vv"));
    }

    #[test]
    fn unknown_flag_rejected() {
        let e = parse(&argv(&["--bogus"]), &[("eps", 1)], &[]).unwrap_err();
        assert!(e.contains("--bogus"));
    }

    #[test]
    fn missing_value_rejected() {
        let e = parse(&argv(&["--eps"]), &[("eps", 1)], &[]).unwrap_err();
        assert!(e.contains("expects 1"));
    }

    #[test]
    fn bad_number_rejected() {
        let a = parse(&argv(&["--eps", "abc"]), &[("eps", 1)], &[]).unwrap();
        assert!(a.get_f64("eps").is_err());
    }

    #[test]
    fn seconds_must_fit_a_duration() {
        let secs = |v: &str| parse(&argv(&["--s", v]), &[("s", 1)], &[]).unwrap();
        for bad in ["1e30", "1.9e19", "inf", "nan", "-1"] {
            let e = secs(bad).get_secs("s", false).unwrap_err();
            assert!(e.contains("--s"), "{bad}: {e}");
            assert!(secs(bad).get_secs("s", true).is_err(), "{bad}");
        }
        // Positive but under a nanosecond: a zero interval, not positive.
        assert!(secs("1e-12").get_secs("s", false).is_err());
        assert!(secs("0").get_secs("s", false).is_err());
        assert_eq!(secs("0").get_secs("s", true).unwrap(), Some(Duration::ZERO));
        assert_eq!(
            secs("1e19").get_secs("s", false).unwrap(),
            Some(Duration::from_secs(10_000_000_000_000_000_000))
        );
    }
}
