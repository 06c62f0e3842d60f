//! The one command-line parser of the `rdse` and `rdse-bench`
//! binaries. Each command declares its flags in a static [`Command`]
//! table; [`Command::parse`] checks a command line against it, and the
//! usage text is generated from the same tables. It is a crate of its
//! own, not part of the `rdse` library, so programs that link the
//! library (the benchmark) do not carry it.
//!
//! An unknown or repeated flag, a value flag without a value, or an
//! extra operand exits 2 (usage) with one `error:` line. A token
//! that starts with `--` is never a value (`--save-mapping --gantt` is
//! a missing value; `--seed -1` reaches the number check). Values are
//! read through the typed accessors of [`Args`]; defaults stay at the
//! call sites.

use std::fmt::Display;
use std::io::Write as _;
use std::str::FromStr;

/// Exit code of a rejected command line, distinct from runtime
/// failures (1).
const EXIT_USAGE: i32 = 2;

/// Column the generated synopsis wraps at.
const WIDTH: usize = 80;

/// One declared flag: its name and, for a flag that takes a value, the
/// value's placeholder as the synopsis shows it.
#[derive(Debug)]
pub struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    required: bool,
}

/// A flag that takes a value, e.g. `flag("--iters", "N")`.
pub const fn flag(name: &'static str, value: &'static str) -> Flag {
    Flag::new(name, Some(value), false)
}

/// A value flag the command cannot run without, read with
/// [`Args::required`]; the synopsis shows it without brackets.
pub const fn required(name: &'static str, value: &'static str) -> Flag {
    Flag::new(name, Some(value), true)
}

/// A flag that takes no value.
pub const fn switch(name: &'static str) -> Flag {
    Flag::new(name, None, false)
}

impl Flag {
    const fn new(name: &'static str, value: Option<&'static str>, required: bool) -> Flag {
        Flag {
            name,
            value,
            required,
        }
    }

    /// `--name VALUE`, or `--name` for a switch.
    fn usage(&self) -> String {
        let name = self.name.to_owned();
        self.value.map_or(name, |v| format!("{} {v}", self.name))
    }
}

/// A command's declaration.
#[derive(Debug)]
pub struct Command {
    /// How the command is invoked, e.g. `rdse explore` or `fig3`.
    pub name: &'static str,
    /// The operands as the synopsis shows them, one word per operand
    /// (e.g. `<stats|compact|verify>`); the command takes at most that
    /// many.
    pub operands: &'static str,
    /// Every flag the command reads. `--help` is implicit.
    pub flags: &'static [Flag],
    /// Prose that `--help` prints after the synopsis.
    pub about: &'static str,
}

impl Command {
    /// Checks `args`, the tokens after the command's name (for the
    /// `rdse-bench` binaries, `std::env::args().skip(1)`), against the
    /// table. `--help` anywhere prints the command's usage and exits 0;
    /// a rejected line exits 2.
    pub fn parse(&'static self, args: impl IntoIterator<Item = String>) -> Args {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "--help") {
            help(&[self], "usage: ");
        }
        let mut parsed = Args {
            command: self,
            operands: Vec::new(),
            values: vec![None; self.flags.len()],
        };
        let mut tokens = args.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                if parsed.operands.len() == self.operands.split_whitespace().count() {
                    parsed.fail(format_args!("unexpected argument '{token}'"));
                }
                parsed.operands.push(token.clone());
                continue;
            }
            let Some(i) = self.flags.iter().position(|f| f.name == token) else {
                if cfg!(rdse_fault = "cli_unknown_flag_ignored") {
                    continue;
                }
                parsed.fail(format_args!("unknown flag '{token}'"));
            };
            if parsed.values[i].is_some() {
                parsed.fail(format_args!("{token} given more than once"));
            }
            let value = match self.flags[i].value {
                None => String::new(),
                Some(placeholder) => match tokens.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => parsed.fail(format_args!("{token} needs a value ({placeholder})")),
                },
            };
            parsed.values[i] = Some(value);
        }
        parsed
    }
}

/// The synopsis of `commands`, one entry per command, wrapped at 80
/// columns. The first line starts with `lead`; the other lines are
/// indented to match, and continuation lines line up after the
/// (padded) command names.
pub fn synopsis(commands: &[&Command], lead: &str) -> String {
    let name_width = commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let indent = " ".repeat(lead.len() + name_width);
    let mut lines = Vec::new();
    for (i, command) in commands.iter().enumerate() {
        let start = if i == 0 { lead } else { &indent[..lead.len()] };
        let mut line = format!("{start}{:name_width$}", command.name);
        let flags = command.flags.iter().map(|f| match f.required {
            true => f.usage(),
            false => format!("[{}]", f.usage()),
        });
        let operands = command.operands.split_whitespace().map(str::to_owned);
        for word in operands.chain(flags) {
            if line.len() + 1 + word.len() > WIDTH && line.len() > indent.len() {
                lines.push(std::mem::replace(&mut line, indent.clone()));
            }
            line.push(' ');
            line.push_str(&word);
        }
        lines.push(line);
    }
    lines.join("\n")
}

/// Prints the synopsis of `commands` and the prose of each to stdout
/// and exits 0.
pub fn help(commands: &[&Command], lead: &str) -> ! {
    let mut text = synopsis(commands, lead);
    for about in commands.iter().map(|c| c.about).filter(|a| !a.is_empty()) {
        text = format!("{text}\n\n{about}");
    }
    let _ = writeln!(std::io::stdout(), "{text}");
    std::process::exit(0)
}

/// Rejects a command line of `command`: one `error:` line, a pointer
/// to the command's `--help`, and exit code 2.
pub fn fail(command: &str, message: impl Display) -> ! {
    eprintln!("error: {message}\nsee `{command} --help`");
    std::process::exit(EXIT_USAGE)
}

/// A command line checked against its [`Command`] table.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    operands: Vec<String>,
    /// Per declared flag, in table order: the value given, `""` for a
    /// switch that was given.
    values: Vec<Option<String>>,
}

impl Args {
    fn slot(&self, name: &str) -> (&'static Flag, Option<&str>) {
        let i = self
            .command
            .flags
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} is not declared for `{}`", self.command.name));
        (&self.command.flags[i], self.values[i].as_deref())
    }

    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.slot(name).1.is_some()
    }

    /// The value of a value flag, `None` when absent.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.slot(name).1
    }

    /// The value of a flag the command cannot run without; its absence
    /// rejects the command line (`missing --path F.aof`).
    pub fn required(&self, name: &str) -> &str {
        let (flag, value) = self.slot(name);
        value.unwrap_or_else(|| self.fail(format_args!("missing {}", flag.usage())))
    }

    /// The flag's value parsed as a `T`, or `default` when absent. A
    /// value that does not parse rejects the command line, naming the
    /// flag and the value: running on the default would hide the
    /// mistake.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        let Some(v) = self.value(name) else {
            return default;
        };
        let bad = || self.fail(format_args!("{name} expects a number, got '{v}'"));
        v.parse().unwrap_or_else(|_| bad())
    }

    /// The flag's comma-separated entries, each read by `parse`;
    /// `None` when absent. A malformed entry rejects the command line:
    /// dropping it would shrink the run behind the user's back.
    pub fn list<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
        let entries = self.value(name)?.split(',').map(str::trim);
        let entry =
            |s| parse(s).unwrap_or_else(|| self.fail(format_args!("invalid {name} entry '{s}'")));
        Some(entries.map(entry).collect())
    }

    /// Rejects the command line with `message` (see [`fail`]).
    pub fn fail(&self, message: impl Display) -> ! {
        fail(self.command.name, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Rejections exit the process, so they are tested against the
    // `rdse` binary (tests/cli.rs); these cover accepted lines and the
    // generated synopsis.
    static DEMO: Command = Command {
        name: "rdse demo",
        operands: "<kind>",
        flags: &[
            required("--path", "F.aof"),
            flag("--iters", "N"),
            flag("--seeds", "A,B"),
            flag("--seed", "N"),
            switch("--quiet"),
            flag(
                "--objective",
                "makespan|weighted:<w_mk>,<w_area>,<w_rc>|lexi:<order>",
            ),
        ],
        about: "",
    };

    fn parse(line: &str) -> Args {
        DEMO.parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn values_switches_and_operands_are_read_from_the_table() {
        let a = parse("--iters 7 run --quiet --path p.aof --seeds 3,1 --seed -1");
        assert_eq!(a.operands(), ["run"]);
        assert_eq!(a.required("--path"), "p.aof");
        assert_eq!(a.num("--iters", 5u64), 7);
        assert_eq!(a.value("--seed"), Some("-1"));
        assert_eq!(
            a.list("--seeds", |s| s.parse::<u64>().ok()),
            Some(vec![3, 1])
        );
        assert!(a.has("--quiet") && a.has("--iters"));
        assert!(!a.has("--objective"));
        assert_eq!(a.value("--objective"), None);
        assert_eq!(a.num("--objective", 0.5), 0.5);
        assert_eq!(a.list("--objective", |_| Some(())), None);
    }

    #[test]
    #[should_panic(expected = "--itres is not declared for `rdse demo`")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse("").has("--itres");
    }

    #[test]
    fn synopsis_wraps_at_80_columns_under_the_padded_names() {
        static LONGER: Command = Command {
            name: "rdse longer",
            operands: "",
            flags: &[switch("--x")],
            about: "",
        };
        assert_eq!(
            synopsis(&[&DEMO, &LONGER], ""),
            "rdse demo   <kind> --path F.aof [--iters N] [--seeds A,B] [--seed N] [--quiet]\n\
             \x20           [--objective makespan|weighted:<w_mk>,<w_area>,<w_rc>|lexi:<order>]\n\
             rdse longer [--x]"
        );
        assert_eq!(synopsis(&[&LONGER], "usage: "), "usage: rdse longer [--x]");
        // A word wider than the rest of a line still gets a line of its own.
        assert_eq!(
            synopsis(&[&DEMO], "usage: "),
            "usage: rdse demo <kind> --path F.aof [--iters N] [--seeds A,B] [--seed N]\n\
             \x20                [--quiet]\n\
             \x20                [--objective makespan|weighted:<w_mk>,<w_area>,<w_rc>|lexi:<order>]"
        );
    }
}
