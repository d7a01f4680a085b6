//! The flat SDDS record of the paper: a Record Identifier and a flat
//! Record Content string (Figure 1).

/// A flat record: `RI` (an artificial, non-sensitive number — here the
/// phone number as digits) and `RC` (the subscriber name).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Record identifier (the paper's RI/RID); assumed non-sensitive.
    pub rid: u64,
    /// Record content — a flat, printable string (the subscriber name).
    pub rc: String,
}

impl Record {
    /// Creates a record.
    pub fn new(rid: u64, rc: impl Into<String>) -> Record {
        Record { rid, rc: rc.into() }
    }

    /// RC as a symbol stream for the statistics crates: one `u16` per byte.
    pub fn symbols(&self) -> Vec<u16> {
        self.rc.bytes().map(u16::from).collect()
    }

    /// The phone number in the directory's display form `415-409-XXXX`
    /// (the RID stores just the digits).
    pub fn phone_display(&self) -> String {
        let digits = format!("{:010}", self.rid);
        format!("{}-{}-{}", &digits[0..3], &digits[3..6], &digits[6..10])
    }

    /// The last name — the directory lists names as `LAST FIRST…`, so this
    /// is the first whitespace-delimited token. Search experiments in the
    /// paper query these.
    pub fn last_name(&self) -> &str {
        self.rc.split(' ').next().unwrap_or("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_bytes() {
        let r = Record::new(1, "AB");
        assert_eq!(r.symbols(), vec![65u16, 66]);
    }

    #[test]
    fn phone_display_formats() {
        let r = Record::new(4154090271, "X");
        assert_eq!(r.phone_display(), "415-409-0271");
    }

    #[test]
    fn phone_display_pads_leading_zeros() {
        let r = Record::new(15550000, "X");
        assert_eq!(r.phone_display(), "001-555-0000");
    }

    #[test]
    fn last_name_is_first_token() {
        assert_eq!(Record::new(1, "SCHWARZ THOMAS").last_name(), "SCHWARZ");
        assert_eq!(Record::new(1, "YU").last_name(), "YU");
        assert_eq!(Record::new(1, "").last_name(), "");
    }
}
