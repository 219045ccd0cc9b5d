/* Line-oriented text processing: a CSV-ish field splitter driven by a
 * state-machine switch, numeric parsing through the stdio/strtod family,
 * and formatted output. Built once dynamically and once with -static, where
 * it pulls a large slice of real glibc text (stdio, locale, strtod) into
 * the binary. */
#include <ctype.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum state { S_FIELD, S_QUOTED, S_QUOTE_END, S_SKIP };

struct stats {
    long lines;
    long fields;
    double sum;
    double min;
    double max;
};

static int split(const char *line, char fields[][64], int max)
{
    enum state st = S_FIELD;
    int nf = 0, len = 0;
    for (const char *p = line; nf < max; p++) {
        char c = *p;
        switch (st) {
        case S_FIELD:
            if (c == '"' && len == 0) {
                st = S_QUOTED;
            } else if (c == ',' || c == '\n' || c == 0) {
                fields[nf++][len] = 0;
                len = 0;
                if (c != ',')
                    return nf;
            } else if (c == '#') {
                fields[nf++][len] = 0;
                st = S_SKIP;
            } else if (len < 63) {
                fields[nf][len++] = c;
            }
            break;
        case S_QUOTED:
            if (c == '"')
                st = S_QUOTE_END;
            else if (c == 0)
                return -1;
            else if (len < 63)
                fields[nf][len++] = c;
            break;
        case S_QUOTE_END:
            if (c == '"') {
                if (len < 63)
                    fields[nf][len++] = '"';
                st = S_QUOTED;
            } else {
                st = S_FIELD;
                p--;
            }
            break;
        case S_SKIP:
            if (c == 0 || c == '\n')
                return nf;
            break;
        }
    }
    return nf;
}

static void upcase(char *s)
{
    for (; *s; s++)
        *s = (char)toupper((unsigned char)*s);
}

static void account(struct stats *s, const char *field)
{
    char *end;
    double v = strtod(field, &end);
    if (end == field)
        return;
    if (s->fields == 0 || v < s->min)
        s->min = v;
    if (s->fields == 0 || v > s->max)
        s->max = v;
    s->sum += v;
    s->fields++;
}

static const char *sample[] = {
    "alpha,1.5,\"quoted, field\",42\n",
    "beta,-2.25,plain,7 # trailing comment\n",
    "gamma,3e2,\"with \"\"escaped\"\" quotes\",0x10\n",
    "delta,,empty,\n",
};

int main(int argc, char **argv)
{
    FILE *in = argc > 1 ? fopen(argv[1], "r") : NULL;
    struct stats st;
    memset(&st, 0, sizeof st);
    char line[512];
    char fields[16][64];
    size_t next = 0;
    for (;;) {
        if (in) {
            if (!fgets(line, sizeof line, in))
                break;
        } else {
            if (next >= sizeof sample / sizeof sample[0])
                break;
            strncpy(line, sample[next++], sizeof line - 1);
            line[sizeof line - 1] = 0;
        }
        int nf = split(line, fields, 16);
        if (nf < 0) {
            fprintf(stderr, "unterminated quote on line %ld\n", st.lines + 1);
            continue;
        }
        st.lines++;
        for (int i = 0; i < nf; i++) {
            long iv;
            if (sscanf(fields[i], "%li", &iv) == 1)
                account(&st, fields[i]);
            else
                upcase(fields[i]);
        }
        printf("%ld: %d fields, first '%s'\n", st.lines, nf, nf ? fields[0] : "");
    }
    if (in)
        fclose(in);
    char when[64];
    time_t now = 0;
    strftime(when, sizeof when, "%Y-%m-%d", gmtime(&now));
    printf("%s lines=%ld numeric=%ld sum=%.3f min=%.3f max=%.3f\n", when, st.lines,
           st.fields, st.sum, st.min, st.max);
    return 0;
}
