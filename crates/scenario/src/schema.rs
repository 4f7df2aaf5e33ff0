//! What the two scenario schemas share: a section reader that consumes
//! keys and rejects the rest by line, the value kinds their key tables
//! are made of, the root `name`/`seed`, the section whitelist and the
//! `key = value` printer of the canonical form.
//!
//! A schema keeps its keys in one `const` table ([`crate::plan`]'s
//! `[[group]]` knobs, [`crate::shard`]'s `[shard]` keys): a row names
//! its key and [`Kind`], and the parser, the range check with its error
//! text, and the printer all walk that table (DESIGN.md §9.1).

use std::fmt::{self, Display, Formatter};

use crate::toml::{self, Doc, Entry, Table, Value};
use crate::Error;

/// How a value outside its range is worded: from the key, the value
/// and the range's two ends.
pub(crate) type Says = fn(&str, u64, u64, u64) -> String;

/// The usual wording of a range miss.
pub(crate) fn in_range(key: &str, v: u64, lo: u64, hi: u64) -> String {
    format!("`{key}` must be in {lo}..={hi}, got {v}")
}

/// The value kind of one table row. Values travel as `u64`: a boolean
/// as 0 or 1, a spelled choice as the index of its spelling. `C` is
/// what a range is computed from (the group's size, the plan so far).
pub(crate) enum Kind<C> {
    /// `true` or `false`.
    Bool,
    /// One of these strings.
    Choice(&'static [&'static str]),
    /// An integer in the range, worded by [`Says`] when outside it.
    Uint(fn(&C) -> (u64, u64), Says),
}

impl<C> Kind<C> {
    /// Reads `key` as this kind (a choice must be one of its
    /// spellings): `None` when the key is absent.
    pub(crate) fn read(&self, keys: &mut Keys, key: &str) -> Result<Option<(u64, usize)>, Error> {
        match *self {
            Kind::Bool => Ok(keys.boolean(key)?.map(|(b, line)| (b as u64, line))),
            Kind::Choice(names) => Ok(keys.choice(key, names)?.map(|(i, line)| (i as u64, line))),
            Kind::Uint(..) => keys.uint(key),
        }
    }

    /// A read value, range-checked against `ctx`.
    pub(crate) fn check(&self, key: &str, got: (u64, usize), ctx: &C) -> Result<u64, Error> {
        match *self {
            Kind::Uint(range, says) => within(key, got, range(ctx), says),
            _ => Ok(got.0),
        }
    }

    /// Writes `key = v` as this kind.
    pub(crate) fn write(&self, f: &mut Formatter, key: &str, v: u64) -> fmt::Result {
        match *self {
            Kind::Bool => kv(f, key, v != 0),
            Kind::Choice(names) => kv(f, key, Quoted(names[v as usize])),
            Kind::Uint(..) => kv(f, key, v),
        }
    }
}

/// `v` when it lies in `lo..=hi`; otherwise the error `says` words, on
/// the value's line.
pub(crate) fn within(
    key: &str,
    (v, line): (u64, usize),
    (lo, hi): (u64, u64),
    says: Says,
) -> Result<u64, Error> {
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(Error::at(line, says(key, v, lo, hi)))
    }
}

/// Writes one `key = value` line of the canonical form.
pub(crate) fn kv(f: &mut Formatter, key: &str, v: impl Display) -> fmt::Result {
    writeln!(f, "{key} = {v}")
}

/// A string value as the format spells it: quoted, escaped.
pub(crate) struct Quoted<'a>(pub &'a str);

impl Display for Quoted<'_> {
    fn fmt(&self, f: &mut Formatter) -> fmt::Result {
        write!(f, "\"{}\"", toml::escape(self.0))
    }
}

/// Checks that `doc` has only the sections a schema knows, then reads
/// the root table's `name` and `seed`.
pub(crate) fn header(doc: &Doc, tables: &[&str], arrays: &[&str]) -> Result<(String, u64), Error> {
    for (found, known, open, close) in
        [(&doc.tables, tables, "[", "]"), (&doc.arrays, arrays, "[[", "]]")]
    {
        if let Some((name, t)) = found.iter().find(|(name, _)| !known.contains(&name.as_str())) {
            return Err(Error::at(t.line, format!("unknown section `{open}{name}{close}`")));
        }
    }
    let mut root = Keys::new("the top level", &doc.root);
    let (name, name_line) =
        root.string("name")?.ok_or_else(|| Error::at(1, "missing required key `name`"))?;
    if name.is_empty() {
        return Err(Error::at(name_line, "`name` must be non-empty"));
    }
    let seed = root.uint("seed")?.ok_or_else(|| Error::at(1, "missing required key `seed`"))?.0;
    root.finish()?;
    Ok((name.to_string(), seed))
}

/// A [`Table`] reader that tracks which keys were consumed so the
/// leftovers can be rejected by name and line.
pub(crate) struct Keys<'a> {
    section: &'a str,
    table: &'a Table,
    used: Vec<bool>,
}

impl<'a> Keys<'a> {
    pub(crate) fn new(section: &'a str, table: &'a Table) -> Self {
        Keys { section, table, used: vec![false; table.keys.len()] }
    }

    /// The error for a required key that is absent.
    pub(crate) fn missing(&self, key: &str) -> Error {
        Error::at(self.table.line, format!("{} needs `{key}`", self.section))
    }

    fn take(&mut self, key: &str) -> Option<&'a Entry> {
        let i = self.table.keys.iter().position(|(k, _)| k == key)?;
        self.used[i] = true;
        Some(&self.table.keys[i].1)
    }

    fn type_err(&self, key: &str, e: &Entry, want: &str) -> Error {
        Error::at(
            e.line,
            format!("`{key}` in {} must be {want}, got {}", self.section, e.value.kind()),
        )
    }

    /// The key's value as `read` takes it, or a type error naming `want`.
    fn typed<T>(
        &mut self,
        key: &str,
        want: &str,
        read: fn(&'a Value) -> Option<T>,
    ) -> Result<Option<(T, usize)>, Error> {
        let Some(e) = self.take(key) else { return Ok(None) };
        match read(&e.value) {
            Some(v) => Ok(Some((v, e.line))),
            None => Err(self.type_err(key, e, want)),
        }
    }

    /// A non-negative integer fitting `u64`.
    pub(crate) fn uint(&mut self, key: &str) -> Result<Option<(u64, usize)>, Error> {
        let int = |v: &Value| if let Value::Int(n) = *v { Some(n) } else { None };
        match self.typed(key, "an integer", int)? {
            Some((n, line)) if n < 0 => {
                Err(Error::at(line, format!("`{key}` in {} must be ≥ 0, got {n}", self.section)))
            }
            got => Ok(got.map(|(n, line)| (n as u64, line))),
        }
    }

    /// [`Keys::uint`] within `range`, worded by `says` when outside.
    pub(crate) fn uint_in(
        &mut self,
        key: &str,
        range: (u64, u64),
        says: Says,
    ) -> Result<Option<(u64, usize)>, Error> {
        let Some(got) = self.uint(key)? else { return Ok(None) };
        Ok(Some((within(key, got, range, says)?, got.1)))
    }

    pub(crate) fn float(&mut self, key: &str) -> Result<Option<(f64, usize)>, Error> {
        self.typed(key, "a number", |v| match *v {
            Value::Float(f) => Some(f),
            Value::Int(n) => Some(n as f64),
            _ => None,
        })
    }

    pub(crate) fn boolean(&mut self, key: &str) -> Result<Option<(bool, usize)>, Error> {
        self.typed(key, "a boolean", |v| if let Value::Bool(b) = *v { Some(b) } else { None })
    }

    pub(crate) fn string(&mut self, key: &str) -> Result<Option<(&'a str, usize)>, Error> {
        self.typed(key, "a string", |v| if let Value::Str(s) = v { Some(s.as_str()) } else { None })
    }

    /// The required `kind` of a `what` section: one of `kinds`.
    pub(crate) fn kind(
        &mut self,
        what: &str,
        kinds: &[&'static str],
    ) -> Result<&'static str, Error> {
        let (kind, line) = self.string("kind")?.ok_or_else(|| self.missing("kind"))?;
        kinds.iter().find(|k| **k == kind).copied().ok_or_else(|| {
            Error::at(line, format!("unknown {what} kind \"{kind}\" ({})", kinds.join(", ")))
        })
    }

    /// A string spelled as one of `names`: the index of its spelling.
    pub(crate) fn choice(
        &mut self,
        key: &str,
        names: &[&str],
    ) -> Result<Option<(usize, usize)>, Error> {
        let Some((s, line)) = self.string(key)? else { return Ok(None) };
        match names.iter().position(|n| *n == s) {
            Some(i) => Ok(Some((i, line))),
            None => {
                let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                let (last, rest) = quoted.split_last().expect("a choice has spellings");
                let spelled = format!("{} or {last}", rest.join(", "));
                Err(Error::at(line, format!("`{key}` must be {spelled}, got \"{s}\"")))
            }
        }
    }

    /// A node set: either a `"a..b"` half-open range string or an
    /// explicit integer list. Bounds-checked against `nodes`.
    pub(crate) fn node_set(
        &mut self,
        key: &str,
        nodes: usize,
    ) -> Result<Option<(Vec<usize>, usize)>, Error> {
        let Some(e) = self.take(key) else { return Ok(None) };
        let line = e.line;
        let set = match &e.value {
            Value::Str(s) => {
                let (a, b) = s
                    .split_once("..")
                    .ok_or_else(|| Error::at(line, format!("`{key}`: range must look like \"0..8\"")))?;
                let a: usize = a.trim().parse().map_err(|_| {
                    Error::at(line, format!("`{key}`: bad range start `{}`", a.trim()))
                })?;
                let b: usize = b.trim().parse().map_err(|_| {
                    Error::at(line, format!("`{key}`: bad range end `{}`", b.trim()))
                })?;
                if a >= b {
                    return Err(Error::at(line, format!("`{key}`: empty range {a}..{b}")));
                }
                (a..b).collect()
            }
            Value::List(items) => {
                let set = items
                    .iter()
                    .map(|item| match *item {
                        Value::Int(n) if n >= 0 => Ok(n as usize),
                        _ => Err(Error::at(
                            line,
                            format!("`{key}`: list entries must be non-negative integers"),
                        )),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if set.is_empty() {
                    return Err(Error::at(line, format!("`{key}`: empty node list")));
                }
                set
            }
            _ => return Err(self.type_err(key, e, "a \"a..b\" range or an integer list")),
        };
        if let Some(n) = set.iter().find(|&&n| n >= nodes) {
            return Err(Error::at(
                line,
                format!("`{key}`: node {n} out of range (topology has {nodes} nodes)"),
            ));
        }
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != set.len() {
            return Err(Error::at(line, format!("`{key}`: duplicate node")));
        }
        Ok(Some((set, line)))
    }

    /// A fault's `from_ms`/`until_ms` window, and the line of its end.
    pub(crate) fn window(&mut self) -> Result<(u64, u64, usize), Error> {
        let at = self.table.line;
        let (from_ms, _) =
            self.uint("from_ms")?.ok_or_else(|| Error::at(at, "fault window needs `from_ms`"))?;
        let (until_ms, until_line) =
            self.uint("until_ms")?.ok_or_else(|| Error::at(at, "fault window needs `until_ms`"))?;
        if until_ms <= from_ms {
            return Err(Error::at(
                until_line,
                format!("empty fault window: until_ms = {until_ms} ≤ from_ms = {from_ms}"),
            ));
        }
        Ok((from_ms, until_ms, until_line))
    }

    /// Rejects any key not consumed by the schema.
    pub(crate) fn finish(self) -> Result<(), Error> {
        match self.table.keys.iter().zip(&self.used).find(|(_, used)| !**used) {
            Some(((k, e), _)) => {
                Err(Error::at(e.line, format!("unknown key `{k}` in {}", self.section)))
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::Kind;

    /// The values a table-walking test tries for one row: those that
    /// must round-trip, as the file spells them with their `u64` code
    /// (each end of a range, every spelling, both booleans), and those
    /// just outside, which must be rejected on the key's line.
    pub(crate) fn ends<C>(kind: &Kind<C>, ctx: &C) -> (Vec<(String, u64)>, Vec<String>) {
        match *kind {
            Kind::Bool => (vec![("false".into(), 0), ("true".into(), 1)], Vec::new()),
            Kind::Choice(names) => (
                names.iter().zip(0..).map(|(n, i)| (format!("\"{n}\""), i)).collect(),
                vec!["\"nope\"".into()],
            ),
            Kind::Uint(range, _) => {
                // The format's integers stop at `i64::MAX`.
                let (lo, hi) = range(ctx);
                let hi = hi.min(i64::MAX as u64);
                let mut past = vec![(lo as i64 - 1).to_string()];
                if hi < i64::MAX as u64 {
                    past.push((hi + 1).to_string());
                }
                (vec![(lo.to_string(), lo), (hi.to_string(), hi)], past)
            }
        }
    }
}
