//! The displayed schema: identifiers at the active naturalness variant.

use crate::link_index::LinkIndex;
use snails_data::SnailsDatabase;
use snails_naturalness::category::SchemaVariant;
use snails_sql::IdentifierMap;

/// One displayed column.
#[derive(Debug, Clone)]
pub struct ViewColumn {
    /// Name as shown in the prompt (variant rendering).
    pub displayed: String,
    /// The underlying native identifier.
    pub native: String,
    /// Declared SQL type name (prompt schema knowledge).
    pub sql_type: &'static str,
}

/// One displayed table.
#[derive(Debug, Clone)]
pub struct ViewTable {
    /// Name as shown in the prompt.
    pub displayed: String,
    /// The underlying native identifier.
    pub native: String,
    /// Displayed columns.
    pub columns: Vec<ViewColumn>,
}

/// The schema as the model sees it: prompt tables only (module-pruned for
/// SBOD), each identifier rendered at the variant level.
///
/// A view carries a lazily filled link index (`crate::link_index`) that
/// memoizes native lookups, token classes and distractor rankings for its
/// `tables`. Change `tables` only before the view's first lookup or
/// inference; a clone or [`SchemaView::restricted_to`] gets an index of its
/// own.
#[derive(Debug, Clone)]
pub struct SchemaView {
    /// Database name.
    pub database: String,
    /// Active variant.
    pub variant: SchemaVariant,
    /// Displayed tables.
    pub tables: Vec<ViewTable>,
    pub(crate) index: LinkIndex,
}


impl SchemaView {
    /// Build the displayed schema for a database at a variant.
    pub fn new(db: &SnailsDatabase, variant: SchemaVariant) -> Self {
        let map = db.crosswalk.native_to_variant(variant);
        let mut tables = Vec::with_capacity(db.prompt_tables.len());
        for table_name in &db.prompt_tables {
            let table = db.db.table(table_name).expect("prompt table exists");
            let columns = table
                .schema
                .columns
                .iter()
                .map(|c| ViewColumn {
                    displayed: map.resolve(&c.name).to_owned(),
                    native: c.name.clone(),
                    sql_type: c.data_type.sql_name(),
                })
                .collect();
            tables.push(ViewTable {
                displayed: map.resolve(table_name).to_owned(),
                native: table_name.clone(),
                columns,
            });
        }
        SchemaView {
            database: db.spec.name.to_owned(),
            variant,
            tables,
            index: LinkIndex::default(),
        }
    }

    /// Restrict the view to the given displayed table names (schema
    /// subsetting output).
    pub fn restricted_to(&self, displayed_tables: &[String]) -> SchemaView {
        let keep: std::collections::HashSet<String> = displayed_tables
            .iter()
            .map(|t| t.to_ascii_uppercase())
            .collect();
        SchemaView {
            database: self.database.clone(),
            variant: self.variant,
            tables: self
                .tables
                .iter()
                .filter(|t| keep.contains(&t.displayed.to_ascii_uppercase()))
                .cloned()
                .collect(),
            index: self.index.restricted(&self.tables),
        }
    }

    /// Total displayed column count (the distraction scale).
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Look up a displayed table by native name (ASCII case-insensitive;
    /// the first match in table order).
    pub fn table_by_native(&self, native: &str) -> Option<&ViewTable> {
        self.index.table(&self.tables, native).map(|t| &self.tables[t])
    }

    /// Look up the displayed name of a native column (searching all tables;
    /// the first match in table order).
    pub fn column_by_native(&self, native: &str) -> Option<&ViewColumn> {
        self.index.column(&self.tables, native).map(|(t, c)| &self.tables[t].columns[c])
    }

    /// The displayed → native identifier map for query denaturalization.
    pub fn displayed_to_native(&self) -> IdentifierMap {
        let mut map = IdentifierMap::new();
        for t in &self.tables {
            map.insert(&t.displayed, &t.native);
            for c in &t.columns {
                map.insert(&c.displayed, &c.native);
            }
        }
        map
    }
}

/// Render the zero-shot prompt of appendix D.1: task instructions, `#Table
/// (Col type, ...)` schema knowledge lines, and the NL question.
pub fn build_prompt(view: &SchemaView, question: &str) -> String {
    let mut prompt = String::with_capacity(4096);
    prompt.push_str(
        "For the database described next, provide only a sql query. \
         do not include any text that is not valid SQL.\n",
    );
    prompt.push_str(&format!("#Database: {}\n", view.database));
    prompt.push_str("#MS SQL Server tables, with their properties:\n");
    for t in &view.tables {
        prompt.push('#');
        prompt.push_str(&t.displayed);
        prompt.push_str(" (");
        for (i, c) in t.columns.iter().enumerate() {
            if i > 0 {
                prompt.push_str(", ");
            }
            prompt.push_str(&c.displayed);
            prompt.push(' ');
            prompt.push_str(c.sql_type);
        }
        prompt.push_str(")\n");
    }
    prompt.push_str(
        "### a sql query, written in the MS SQL Server dialect, to answer the question: ",
    );
    prompt.push_str(question);
    prompt.push('\n');
    prompt
}

#[cfg(test)]
mod tests {
    use super::*;
    use snails_data::build_database;

    #[test]
    fn native_view_shows_native_names() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        for t in &view.tables {
            assert_eq!(t.displayed, t.native);
            for c in &t.columns {
                assert_eq!(c.displayed, c.native);
            }
        }
        assert_eq!(view.tables.len(), 13);
        assert_eq!(view.column_count(), 71);
    }

    #[test]
    fn regular_view_is_snake_case_words() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Regular);
        // Regular renderings are snake_case full words; spot-check that the
        // displayed names differ from any Least-style skeletons.
        let mut changed = 0;
        for t in &view.tables {
            if t.displayed != t.native {
                changed += 1;
            }
        }
        assert!(changed > 0, "Regular view identical to native");
    }

    #[test]
    fn displayed_to_native_round_trips() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let map = view.displayed_to_native();
        for t in &view.tables {
            assert_eq!(map.get(&t.displayed), Some(t.native.as_str()));
        }
    }

    #[test]
    fn prompt_format_matches_appendix_d1() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        let prompt = build_prompt(&view, "How many sightings were recorded?");
        assert!(prompt.starts_with("For the database described next"));
        assert!(prompt.contains("#Database: CWO"));
        assert!(prompt.contains("#MS SQL Server tables"));
        assert!(prompt.contains("MS SQL Server dialect"));
        assert!(prompt.ends_with("How many sightings were recorded?\n"));
        // Every prompt table appears as a `#Name (` line.
        for t in &view.tables {
            assert!(prompt.contains(&format!("#{} (", t.displayed)), "{}", t.displayed);
        }
    }

    #[test]
    fn restriction_filters_tables() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        let keep = vec![view.tables[0].displayed.clone()];
        let small = view.restricted_to(&keep);
        assert_eq!(small.tables.len(), 1);
        assert_eq!(small.tables[0].displayed, keep[0]);
    }

    #[test]
    fn sbod_prompt_is_module_pruned() {
        let db = build_database("SBOD");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        assert_eq!(view.tables.len(), snails_data::databases::SBOD_PROMPT_TABLES);
        assert!(view.column_count() < 4000);
    }

    #[test]
    fn lookup_by_native() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let event = db.core.native(snails_data::core_schema::CoreRole::EventTable);
        let t = view.table_by_native(&event).expect("event table in view");
        assert_eq!(t.native, event);
        assert!(view.table_by_native("no_such_table").is_none());
    }
}
