/* Function pointers everywhere: qsort comparators, a callback table of
 * hash functions, and an open-addressing hash table. Address-taken
 * functions reach the binary only through data (the comparator table),
 * which is the case metadata-free disassembly must recover. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

struct rec {
    char key[16];
    uint32_t id;
    double score;
};

static int by_id(const void *a, const void *b)
{
    const struct rec *x = a, *y = b;
    return (x->id > y->id) - (x->id < y->id);
}

static int by_key(const void *a, const void *b)
{
    return strcmp(((const struct rec *)a)->key, ((const struct rec *)b)->key);
}

static int by_score(const void *a, const void *b)
{
    double d = ((const struct rec *)a)->score - ((const struct rec *)b)->score;
    return (d > 0) - (d < 0);
}

static int (*const cmps[])(const void *, const void *) = {by_id, by_key, by_score};

typedef uint64_t (*hash_fn)(const char *);

static uint64_t fnv1a(const char *s)
{
    uint64_t h = 1469598103934665603ULL;
    while (*s)
        h = (h ^ (unsigned char)*s++) * 1099511628211ULL;
    return h;
}

static uint64_t djb2(const char *s)
{
    uint64_t h = 5381;
    while (*s)
        h = h * 33 + (unsigned char)*s++;
    return h;
}

static uint64_t sdbm(const char *s)
{
    uint64_t h = 0;
    while (*s)
        h = (unsigned char)*s++ + (h << 6) + (h << 16) - h;
    return h;
}

static const hash_fn hashes[] = {fnv1a, djb2, sdbm};

struct table {
    struct rec *slots[512];
    hash_fn hash;
    unsigned probes;
};

static void put(struct table *t, struct rec *r)
{
    uint64_t h = t->hash(r->key);
    for (unsigned i = 0; i < 512; i++) {
        unsigned s = (unsigned)((h + i) & 511);
        t->probes++;
        if (!t->slots[s] || strcmp(t->slots[s]->key, r->key) == 0) {
            t->slots[s] = r;
            return;
        }
    }
}

static struct rec *get(struct table *t, const char *key)
{
    uint64_t h = t->hash(key);
    for (unsigned i = 0; i < 512; i++) {
        unsigned s = (unsigned)((h + i) & 511);
        t->probes++;
        if (!t->slots[s])
            return NULL;
        if (strcmp(t->slots[s]->key, key) == 0)
            return t->slots[s];
    }
    return NULL;
}

static uint32_t xorshift(uint32_t *state)
{
    uint32_t x = *state;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return *state = x;
}

static long fib(int n)
{
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
}

static void fill(struct rec *rs, int n, uint32_t seed)
{
    for (int i = 0; i < n; i++) {
        uint32_t v = xorshift(&seed);
        snprintf(rs[i].key, sizeof rs[i].key, "k%08x", v);
        rs[i].id = v % 1000;
        rs[i].score = (double)(v % 9973) / 97.0;
    }
}

int main(int argc, char **argv)
{
    int n = argc > 1 ? atoi(argv[1]) : 300;
    if (n < 1 || n > 400)
        n = 300;
    struct rec *rs = calloc((size_t)n, sizeof *rs);
    if (!rs)
        return 1;
    fill(rs, n, 0x9e3779b9u);
    for (size_t c = 0; c < sizeof cmps / sizeof cmps[0]; c++) {
        qsort(rs, (size_t)n, sizeof *rs, cmps[c]);
        printf("cmp %zu: first %s last %s\n", c, rs[0].key, rs[n - 1].key);
    }
    for (size_t h = 0; h < sizeof hashes / sizeof hashes[0]; h++) {
        struct table t;
        memset(&t, 0, sizeof t);
        t.hash = hashes[h];
        for (int i = 0; i < n; i++)
            put(&t, &rs[i]);
        int hits = 0;
        for (int i = 0; i < n; i += 3)
            hits += get(&t, rs[i].key) != NULL;
        printf("hash %zu: %d hits, %u probes\n", h, hits, t.probes);
    }
    printf("fib %ld\n", fib(20));
    free(rs);
    return 0;
}
